import itertools
import random

import pytest
import reference_sat
from reference_sat import brute_force
from test_theory_query import query_of, random_plan_parts, random_theory_parts

from deon.logic import Atom, GroundClauseSet, LogicError, compile_fragment
from deon.sat import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    ConflictExplanation,
    Model,
    SatResult,
    _witness,
    solve,
)


def clause_set(n: int, clauses: list[tuple[int, ...]]) -> GroundClauseSet:
    return GroundClauseSet(tuple(Atom(f"v{i}") for i in range(n)), 0, tuple(clauses))


def random_clause_set(rng: random.Random, max_atoms: int = 12) -> GroundClauseSet:
    n = rng.randint(1, max_atoms)
    m = rng.randint(1, 2 * n + 4)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, 3)
        clauses.append(tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(width)))
    return clause_set(n, clauses)


# -- basic outcomes -----------------------------------------------------------


def test_empty_clause_set_is_satisfiable_with_empty_model():
    cs = GroundClauseSet((), 0, ())
    result = solve(cs)
    assert result.satisfiable
    assert result.model == Model(())
    brute = brute_force(cs)
    assert brute.satisfiable and brute.model == Model(())


def test_unit_contradiction_unsat():
    cs = clause_set(1, [(1,), (-1,)])
    assert not solve(cs).satisfiable
    assert not brute_force(cs).satisfiable


def test_brute_force_witness_is_first_in_counting_order():
    # all-false first, last atom is the fastest bit: (p or q) -> p=F, q=T
    cs = clause_set(2, [(1, 2)])
    result = brute_force(cs)
    assert result.model.values == (False, True)


def first_true_first(cs: GroundClauseSet) -> tuple[bool, ...] | None:
    """The first assignment that satisfies every clause, in true-first
    lexicographic order: variable 1 moves slowest, true before false."""
    for values in itertools.product((True, False), repeat=cs.num_vars):
        if all(any(values[abs(lit) - 1] == (lit > 0) for lit in cl) for cl in cs.clauses):
            return values
    return None


def test_witness_is_the_first_satisfying_assignment_in_true_first_order():
    # Depth-first search on the lowest free variable, true first, with
    # chronological backtracking skips only subtrees that sound unit
    # propagation proves empty. A solve that borrows a theory's watch index
    # must keep this, and a query's witness is first in query order.
    rng = random.Random(0xF1257)
    seen = {True: 0, False: 0}
    for _ in range(1500):
        cs = random_clause_set(rng, max_atoms=9)
        result = solve(cs)
        assert (result.model.values if result.satisfiable else None) == first_true_first(cs)
        seen[result.satisfiable] += 1
    queries = 0
    for _ in range(150):
        pool, theory_parts = random_theory_parts(rng)
        theory = compile_fragment(theory_parts)
        for query in [query_of(theory, random_plan_parts(rng, pool)) for _ in range(3)]:
            if query.num_vars > 12:
                continue
            result = solve(query)
            witness = result.model.values if result.satisfiable else None
            assert witness == first_true_first(query.clause_set)
            seen[result.satisfiable] += 1
            queries += 1
    assert min(seen.values()) >= 300 and queries >= 200, (seen, queries)


def test_solve_branches_lowest_index_true_first():
    cs = clause_set(2, [(1, 2)])
    assert solve(cs).model.values == (True, True)


def test_bus_style_antecedent_conjunction_unsat():
    # c1 and c2 and (not c3) and c4 and c3: two clashing units
    cs = clause_set(4, [(1,), (2,), (-3,), (4,), (3,)])
    assert not brute_force(cs).satisfiable
    assert not solve(cs).satisfiable


def test_budget_exhaustion_raises_distinct_outcome():
    clauses = []
    for i in range(0, 12, 2):
        clauses.append((i + 1, i + 2))
        clauses.append((-(i + 1), -(i + 2)))
    cs = clause_set(12, clauses)
    with pytest.raises(BudgetExhausted):
        solve(cs, budget=1)
    assert solve(cs, budget=100).satisfiable


def test_counts_give_the_least_budget_and_the_propagated_variables():
    result = solve(clause_set(3, [(1,), (-1, 2), (-2, 3)]))
    assert (result.decisions, result.propagations) == (0, 3)
    result = solve(clause_set(2, [(1, 2), (-1, -2)]))
    assert (result.decisions, result.propagations) == (1, 1)
    assert result == SatResult(True, result.model)  # the counts take no part in equality
    rng = random.Random(0xC0DE)
    several = 0
    for _ in range(1000):
        cs = random_clause_set(rng)
        result = solve(cs)
        again = solve(cs, max(result.decisions, 1))
        assert (again, again.decisions, again.propagations) == (
            result, result.decisions, result.propagations
        )
        assert result.propagations <= cs.num_vars * (result.decisions + 1)
        if result.decisions > 1:
            several += 1
            with pytest.raises(BudgetExhausted) as exc:
                solve(cs, result.decisions - 1)
            assert exc.value.decisions == result.decisions
        elif result.decisions == 1:
            with pytest.raises(ValueError):  # a budget must be positive
                solve(cs, 0)
    assert several >= 100, several


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        solve(clause_set(1, [(1,)]), budget=0)


def test_brute_force_enumeration_bound():
    cs = clause_set(25, [(1,)])
    with pytest.raises(ValueError):
        brute_force(cs)


def test_sat_result_variant_invariant():
    with pytest.raises(LogicError):
        SatResult(satisfiable=True)
    with pytest.raises(LogicError):
        SatResult(satisfiable=False)


def test_clause_set_invariants():
    with pytest.raises(LogicError):
        GroundClauseSet((Atom("p"),), 0, ((),))
    with pytest.raises(LogicError):
        GroundClauseSet((Atom("p"),), 0, ((2,),))


# Two atoms and one aux variable: literals -3..3 without 0 are in range.
BAD_CLAUSE_SETS = {
    "empty clause": (((1, 2), ()), (), "clauses must be nonempty"),
    "literal 0": (((1,), (2, 0)), (), "literal 0 out of range for 3 variables"),
    "literal n+1": (((-3, 4),), (), "literal 4 out of range for 3 variables"),
    "literal -(n+1)": (((3,), (-4, 1)), (), "literal -4 out of range for 3 variables"),
    # the first bad clause names the error, whatever comes after it
    "bad literal before empty clause": (((5,), ()), (), "literal 5 out of range for 3 variables"),
    "empty clause before bad literal": (((), (5,)), (), "clauses must be nonempty"),
    "label count": (((1,), (2,)), ("only one",), "clause labels must match clauses one to one"),
}


@pytest.mark.parametrize("case", BAD_CLAUSE_SETS)
def test_clause_set_validation_names_the_first_bad_clause(case):
    clauses, labels, message = BAD_CLAUSE_SETS[case]
    with pytest.raises(LogicError) as raised:
        GroundClauseSet((Atom("p"), Atom("q")), 1, clauses, labels)
    assert str(raised.value) == message


def test_clause_set_validation_accepts_every_literal_in_range():
    cs = GroundClauseSet((Atom("p"), Atom("q")), 1, ((1, -1), (2, -2, 3), (-3,)), ("", "", ""))
    assert cs.num_vars == 3


def value_table(values: tuple[bool, ...]) -> list[bool | None]:
    """`solve`'s table of literal values for a complete assignment."""
    return [None, *values, *[not v for v in reversed(values)]]


def test_verified_rejects_a_model_failing_a_negative_clause():
    cs = clause_set(3, [(1, 2), (-1, -3)])
    identity = [0, 1, 2, 3]
    witness = _witness(value_table((True, False, False)), cs.clauses, identity)
    assert witness.values == (True, False, False)
    with pytest.raises(LogicError, match="witness fails a clause"):
        _witness(value_table((True, False, True)), cs.clauses, identity)
    with pytest.raises(LogicError, match="witness fails a clause"):
        _witness(value_table((False, False, False)), cs.clauses, identity)
    # The model is read in the given order once the check passes.
    assert _witness(value_table((True, False, False)), cs.clauses, [0, 3, 1, 2]).values == (
        False, True, False)


def test_model_must_cover_every_variable():
    cs = clause_set(3, [(1, 2), (-1, -3)])
    with pytest.raises(LogicError, match="does not cover"):
        Model((True, False)).satisfies(cs)
    assert Model((True, False, False, True)).satisfies(cs)


# -- randomized agreement with the exhaustive oracle ---------------------------


def test_solve_agrees_with_brute_force_on_random_sets():
    rng = random.Random(987654)
    unsat_seen = sat_seen = 0
    for _ in range(3000):
        cs = random_clause_set(rng)
        fast = solve(cs)
        slow = brute_force(cs)
        assert fast.satisfiable == slow.satisfiable
        if fast.satisfiable:
            sat_seen += 1
            assert fast.model.satisfies(cs)
            assert slow.model.satisfies(cs)
        else:
            unsat_seen += 1
    assert sat_seen > 0 and unsat_seen > 0


def test_conflict_explanation_subset_is_unsatisfiable():
    rng = random.Random(13579)
    checked = 0
    while checked < 300:
        cs = random_clause_set(rng, max_atoms=8)
        result = solve(cs)
        if result.satisfiable:
            continue
        checked += 1
        subset = reference_sat.subset(result.conflict, cs)
        assert len(subset.clauses) >= 1
        assert not brute_force(subset).satisfiable


def test_determinism_identical_runs():
    rng = random.Random(24680)
    for _ in range(200):
        cs = random_clause_set(rng)
        first = solve(cs)
        second = solve(cs)
        assert first == second


def test_witness_never_violates_a_clause():
    rng = random.Random(112233)
    for _ in range(500):
        cs = random_clause_set(rng)
        result = solve(cs)
        if result.satisfiable:
            values = result.model.values
            for clause in cs.clauses:
                assert any(values[abs(lit) - 1] == (lit > 0) for lit in clause)


def test_conflict_render_maps_atoms_back():
    cs = GroundClauseSet(
        (Atom("p"), Atom("q")), 0, ((1,), (-1, 2), (-2,)),
        ("fact", "rule", "denial"),
    )
    result = solve(cs)
    assert not result.satisfiable
    rendered = result.conflict.render(cs)
    assert any("fact: p" in line for line in rendered)
    assert any("not p or q" in line for line in rendered)


def test_explanation_indices_point_into_input():
    cs = clause_set(2, [(1,), (2,), (-1, -2), (1, 2)])
    result = solve(cs)
    assert not result.satisfiable
    assert all(0 <= i < len(cs.clauses) for i in result.conflict.clause_indices)
    explanation = ConflictExplanation(result.conflict.clause_indices)
    assert not brute_force(reference_sat.subset(explanation, cs)).satisfiable


# -- unit clauses over fresh variables ------------------------------------------


def with_fresh_units(
    rng: random.Random, cs: GroundClauseSet
) -> tuple[GroundClauseSet, list[int], dict[int, int]]:
    """`cs` with fresh variables, each in one unit clause, inserted at random.

    The fresh variables take random places in the numbering and their units
    random places in the clause list. Returns the new set, the new variable
    of each old one (old variable v is `variables[v - 1]`) and the new index
    of each old clause.
    """
    n, k = cs.num_vars, rng.randint(1, 4)
    fresh = {v + 1 for v in rng.sample(range(n + k), k)}
    variables = [v for v in range(1, n + k + 1) if v not in fresh]
    entries: list[tuple[int | None, tuple[int, ...]]] = [
        (i, tuple(variables[abs(lit) - 1] * (1 if lit > 0 else -1) for lit in cl))
        for i, cl in enumerate(cs.clauses)
    ]
    for v in sorted(fresh):
        entries.insert(rng.randint(0, len(entries)), (None, (rng.choice((1, -1)) * v,)))
    shifted = {i: at for at, (i, _) in enumerate(entries) if i is not None}
    atoms = tuple(Atom(f"v{i}") for i in range(n + k))
    return GroundClauseSet(atoms, 0, tuple(cl for _, cl in entries)), variables, shifted


def solve_or_exhaust(cs: GroundClauseSet, budget: int) -> SatResult | int:
    """The result, or the decision count at which the budget ran out."""
    try:
        return solve(cs, budget)
    except BudgetExhausted as exc:
        return exc.decisions


def test_unit_clauses_over_fresh_variables_change_no_search():
    # The first propagation sets a fresh unit before any decision and
    # backtracking never unsets it, so the search over the old variables
    # makes the same decisions, flips and conflicts under every budget.
    rng = random.Random(0x5EED)
    outcomes = set()
    for _ in range(400):
        cs = random_clause_set(rng)
        joint, variables, shifted = with_fresh_units(rng, cs)
        for budget in (*range(1, 11), DEFAULT_BUDGET):
            alone, together = solve_or_exhaust(cs, budget), solve_or_exhaust(joint, budget)
            if isinstance(alone, int):
                outcomes.add("exhausted")
                assert together == alone
            elif alone.satisfiable:
                outcomes.add("sat")
                assert together.satisfiable
                values = together.model.values
                assert tuple(values[v - 1] for v in variables) == alone.model.values
            else:
                outcomes.add("unsat")
                assert not together.satisfiable
                assert together.conflict.clause_indices == tuple(
                    shifted[i] for i in alone.conflict.clause_indices
                )
    assert outcomes == {"exhausted", "sat", "unsat"}
