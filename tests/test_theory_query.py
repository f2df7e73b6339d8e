"""Queries solved in place against a theory fragment against their renaming.

`ClauseBuilder(theory)` builds a `TheoryQuery`: the plan parts encoded in
the theory's numbering, followed by the theory's clauses as compiled, with
a branching order that maps query variables to the stored ones. `solve`
must give it exactly the outcome it gives the query-numbered set
`query.clause_set` (verdict, witness values, conflict clause indices and
the decision count at which a budget runs out), which is the outcome the
original solver in `reference_sat` gives that set, and that set must be what
the reference builder makes from the plan parts followed by the theory's
formulas. The theories are seeded random fragments with aux variables,
some with random three-literal clauses, which make the search backtrack;
the plan parts use some of the theory's atoms and some of their own.

Every solve against a theory borrows the theory's watch index and gives it
back restored. Solves that borrow it, interleaved across queries and
budgets, must match solves against a freshly compiled copy of the theory
and the reference solver, and leave the theory as it was.
"""

from __future__ import annotations

import random
import runpy
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
import reference_logic
from reference_sat import solve as reference_solve
from test_query_differential import random_formula
from test_sat_differential import outcome

from deon import scenarios
from deon.dsl import parse_scenario
from deon.logic import (
    Atom,
    AtomF,
    ClauseBuilder,
    LogicError,
    Not,
    Or,
    TheoryQuery,
    agent_const,
    compile_fragment,
)
from deon.principles import Witness, evaluate
from deon.sat import DEFAULT_BUDGET, BudgetExhausted, solve

BUDGETS = (DEFAULT_BUDGET, 1, 2, 3, 4, 5)


def random_clause(rng: random.Random, pool: list[Atom]) -> Or:
    atoms = [AtomF(rng.choice(pool)) for _ in range(3)]
    return Or(tuple(Not(a) if rng.random() < 0.5 else a for a in atoms))


def test_queries_solved_in_place_match_their_query_numbered_sets():
    rng = random.Random(0x7E0)
    kinds: Counter = Counter()
    for _ in range(400):
        pool = [Atom(f"t{i}", (agent_const("a"),)) for i in range(rng.randint(1, 8))]
        own = [Atom(f"p{i}", (agent_const("a"),)) for i in range(rng.randint(0, 4))]
        shared = rng.sample(pool, rng.randint(0, len(pool)))
        theory_parts = [
            (random_formula(rng, pool, rng.randint(0, 4)), rng.choice(("", "theory")))
            for _ in range(rng.randint(0, 6))
        ]
        if rng.random() < 0.5:
            theory_parts += [(random_clause(rng, pool), "clause") for _ in range(4 * len(pool))]
        plan_parts = [
            (random_formula(rng, (shared + own) or pool, rng.randint(0, 3)), "plan")
            for _ in range(rng.randint(0, 4))
        ]
        theory = compile_fragment(theory_parts)
        builder = ClauseBuilder(theory)
        for formula, label in plan_parts:
            builder.add(formula, label)
        query = builder.build()
        assert isinstance(query, TheoryQuery)

        reference = reference_logic.ClauseBuilder()
        for formula, label in plan_parts + theory_parts:
            reference.add(formula, label)
        expected = reference.build()
        assert query.clause_set == expected, (plan_parts, theory_parts)
        assert (len(query.clauses), query.num_vars) == (len(expected.clauses), expected.num_vars)
        assert query.atoms == expected.atoms
        assert query.clauses[len(query.plan_clauses):] == theory.clauses
        for i in range(len(expected.clauses)):
            assert (query.label_of(i), query.clause_str(i)) == (
                expected.label_of(i), expected.clause_str(i)
            )

        for budget in BUDGETS:
            result = outcome(solve, query, budget)
            assert result == outcome(solve, query.clause_set, budget), budget
            assert result == outcome(reference_solve, query.clause_set, budget), budget
            kinds[result[0]] += 1
    # Every kind of outcome is reached: witnesses, conflicts and budgets running out.
    assert min(kinds[True], kinds[False], kinds["budget exhausted"]) >= 50, kinds


def test_a_theory_is_solved_as_compiled_and_its_clauses_are_shared():
    pool = [Atom(f"t{i}", (agent_const("a"),)) for i in range(5)]
    theory = compile_fragment([(random_formula(random.Random(3), pool, 4), "theory")])
    plan = random_formula(random.Random(4), pool[:3], 2)
    for query in (ClauseBuilder(theory).add(plan).build(), ClauseBuilder(theory).build()):
        tail = query.clauses[len(query.plan_clauses):]
        assert all(a is b for a, b in zip(tail, theory.clauses, strict=True))
    # Without plan parts the query numbering is the theory's own.
    assert query.order == tuple(range(theory.num_vars + 1))
    assert query.clause_set == theory


# -- one theory's watch index, borrowed by every solve against it ---------------


def random_theory_parts(rng: random.Random) -> tuple[list[Atom], list]:
    """A pool of theory atoms and labeled theory parts over them, as above."""
    pool = [Atom(f"t{i}", (agent_const("a"),)) for i in range(rng.randint(1, 8))]
    parts = [
        (random_formula(rng, pool, rng.randint(0, 4)), rng.choice(("", "theory")))
        for _ in range(rng.randint(0, 6))
    ]
    if rng.random() < 0.5:
        parts += [(random_clause(rng, pool), "clause") for _ in range(4 * len(pool))]
    return pool, parts


def random_plan_parts(rng: random.Random, pool: list[Atom]) -> list:
    """Plan parts over some of the theory's atoms and some atoms of their own."""
    own = [Atom(f"p{i}", (agent_const("a"),)) for i in range(rng.randint(0, 4))]
    shared = rng.sample(pool, rng.randint(0, len(pool)))
    return [
        (random_formula(rng, (shared + own) or pool, rng.randint(0, 3)), "plan")
        for _ in range(rng.randint(0, 4))
    ]


def query_of(theory, plan_parts: list) -> TheoryQuery:
    builder = ClauseBuilder(theory)
    for formula, label in plan_parts:
        builder.add(formula, label)
    return builder.build()


def solved(cs, budget: int) -> tuple:
    """`outcome`, with the decision and propagation counts of an answer."""
    try:
        result = solve(cs, budget)
    except BudgetExhausted as exc:
        return ("budget exhausted", exc.decisions)
    evidence = result.model.values if result.satisfiable else result.conflict.clause_indices
    return (result.satisfiable, evidence, result.decisions, result.propagations)


def assert_index_restored(theory) -> None:
    """The theory keeps one watch index, over its own clauses and variables
    alone: each clause's copy is a permutation of it, and each literal's
    list holds a clause once per watch of that clause on the literal."""
    [(watched, watches, units)] = theory.solver_indexes
    assert len(watched) == len(theory.clauses)
    assert len(watches) == 2 * theory.num_vars + 1
    assert units == [j for j, cl in enumerate(theory.clauses) if len(cl) == 1]
    expected: Counter = Counter()
    for j, (lits, cl) in enumerate(zip(watched, theory.clauses)):
        assert sorted(lits) == sorted(cl)
        if len(cl) > 1:
            expected.update([(lits[0], j), (lits[1], j)])
    listed = Counter(
        (lit, j) for lit in range(-theory.num_vars, theory.num_vars + 1) for j in watches[lit]
    )
    assert listed == expected


def test_solves_borrowing_one_theory_index_match_fresh_and_reference_solves():
    # Several queries against one theory, some with atoms the theory lacks,
    # and the theory itself, solved interleaved and repeated under budgets
    # that often run out, so every solve borrows an index that answers,
    # conflicts and exhausted budgets of other queries have left behind.
    rng = random.Random(0xB0A7)
    kinds: Counter = Counter()
    for _ in range(150):
        pool, theory_parts = random_theory_parts(rng)
        theory = compile_fragment(theory_parts)
        clauses, hashed = theory.clauses, hash(theory)
        plans = [random_plan_parts(rng, pool) for _ in range(rng.randint(2, 5))]
        queries = [query_of(theory, plan) for plan in plans]
        for i in rng.choices(range(-1, len(plans)), k=16):
            budget = rng.choice(BUDGETS)
            if i < 0:  # the theory alone
                cs, fresh = theory, compile_fragment(theory_parts)
                numbered = theory
            else:
                cs, fresh = queries[i], query_of(compile_fragment(theory_parts), plans[i])
                numbered = cs.clause_set
            got = solved(cs, budget)
            assert got == solved(fresh, budget), (i, budget)
            assert got[:2] == outcome(reference_solve, numbered, budget), (i, budget)
            kinds[got[0], i < 0] += 1
            assert_index_restored(theory)
        assert theory.clauses == clauses and hash(theory) == hashed
        assert theory == compile_fragment(theory_parts)
    # Queries and the theory alone each reach witnesses, conflicts and budgets running out.
    assert min(kinds.values()) >= 20 and len(kinds) == 6, kinds


def test_an_interrupted_solve_drops_the_index_it_borrowed(monkeypatch):
    # An interruption can stop an assignment halfway through rewriting a
    # watch list (`heappush` queues a clause it left unit), or strike while
    # the sweep takes its next clause (`heappop`). Either way the index is
    # never given back; the next solve builds one.
    rng = random.Random(0x1D7)
    pool, theory_parts = random_theory_parts(rng)
    theory_parts += [(random_clause(rng, pool), "clause") for _ in range(4 * len(pool))]
    theory = compile_fragment(theory_parts)
    query = query_of(theory, random_plan_parts(rng, pool))
    expected = solved(query, DEFAULT_BUDGET)
    assert len(theory.solver_indexes) == 1

    def interrupted(heap, *item):
        raise KeyboardInterrupt

    for name in ("heappush", "heappop"):
        monkeypatch.setattr(f"deon.sat.{name}", interrupted)
        with pytest.raises(KeyboardInterrupt):
            solve(query)
        monkeypatch.undo()
        assert theory.solver_indexes == [], name
        assert solved(query, DEFAULT_BUDGET) == expected, name
        assert len(theory.solver_indexes) == 1, name


def test_a_witness_is_checked_against_every_clause_the_search_missed():
    # With one clause's watches deleted from the borrowed index, propagation
    # never sees it, so the search ends with `not t0 or not t1` false. Every
    # witness is checked against every stored clause, so `solve` raises;
    # the index it borrowed is dropped, and the next solve builds one.
    pool = [Atom(f"t{i}", (agent_const("a"),)) for i in range(2)]
    theory = compile_fragment([(Or((Not(AtomF(pool[0])), Not(AtomF(pool[1])))), "theory")])
    own = AtomF(Atom("p0", (agent_const("a"),)))
    for cs in (theory, query_of(theory, [(own, "plan")])):
        expected = solved(cs, DEFAULT_BUDGET)
        assert expected[0] is True
        [(watched, watches, _)] = theory.solver_indexes
        [(ci, lits)] = [(ci, lits) for ci, lits in enumerate(watched) if len(lits) > 1]
        watches[lits[0]].remove(ci)
        watches[lits[1]].remove(ci)
        with pytest.raises(LogicError, match="^internal error: witness fails a clause$"):
            solve(cs)
        assert theory.solver_indexes == []
        assert solved(cs, DEFAULT_BUDGET) == expected


def test_solves_in_threads_never_share_an_index():
    # A tiny switch interval makes the threads' solves interleave; each pops
    # its own index or builds one, so every thread sees the sequential results.
    rng = random.Random(0x7EAD)
    pool, theory_parts = random_theory_parts(rng)
    theory_parts += [(random_clause(rng, pool), "clause") for _ in range(4 * len(pool))]
    theory = compile_fragment(theory_parts)
    queries = [query_of(theory, random_plan_parts(rng, pool)) for _ in range(6)]
    expected = [solved(query, DEFAULT_BUDGET) for query in queries]
    results: list = []

    def work() -> None:
        results.append([solved(query, DEFAULT_BUDGET) for query in queries * 20])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected * 20] * 4
    assert 1 <= len(theory.solver_indexes) <= 4


def benchmark_sources() -> list[str]:
    """The first three seed-1 `scaling` and `fixpoint` instances, drawn as
    the benchmark draws them."""
    generate = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "generate.py"))
    scaling, fixpoint = random.Random("scaling:1"), random.Random("fixpoint:1")
    return [generate["scaling_scenario"](scaling, 7, 1, 3, 3, 1 / 3).text for _ in range(3)] + [
        generate["fixpoint_scenario"](fixpoint, 12).text for _ in range(3)
    ]


def test_every_recorded_witness_satisfies_its_own_query():
    # `solve` returns a witness in query numbering, the numbering in which
    # `Model.satisfies` reads a `TheoryQuery`: through its `clause_set`.
    sources = [scenarios.source(name) for name in scenarios.NAMES] + benchmark_sources()
    witnesses = 0
    for source in sources:
        for recorded in evaluate(parse_scenario(source).scenario).queries:
            if isinstance(recorded.evidence, Witness):
                witnesses += 1
                assert recorded.evidence.model.satisfies(recorded.query), recorded.check
                assert recorded.evidence.model.satisfies(recorded.clause_set), recorded.check
    assert witnesses > 12
