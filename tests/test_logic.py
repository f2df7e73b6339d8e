import dataclasses
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st
from reference_logic import evaluate_formula, to_clauses
from reference_sat import brute_force

import deon
from deon.logic import (
    And,
    Atom,
    AtomF,
    ClauseBuilder,
    ForAll,
    GroundClauseSet,
    Grounding,
    GroundingError,
    Implies,
    LogicError,
    Not,
    OBJECT,
    Or,
    SignedAtom,
    TRUE,
    Term,
    agent_const,
    agent_var,
    compile_fragment,
    ground,
    object_const,
    object_var,
    substitute_atom,
    universalization_trigger,
    walk,
)
from deon.sat import solve
from deon.scenario import ActionPlan

A, B = agent_const("a"), agent_const("b")
x = agent_var("x")
y = object_var("y")


def atom(pred, *args):
    return AtomF(Atom(pred, tuple(args)))


def assert_ground(f):
    """No quantifier is left and every atom is ground."""
    for node in walk(f):
        assert not isinstance(node, ForAll)
        assert not isinstance(node, AtomF) or node.atom.is_ground()


# -- atoms and terms -----------------------------------------------------------


def test_atom_and_term_hash_is_the_field_tuple_hash():
    a, y_const = agent_const("a"), object_const("y")
    assert hash(a) == hash(("agent", "a", False))
    assert hash(x) == hash(("agent", "x", True))
    p = Atom("at", (a, y_const))
    assert hash(p) == hash(("at", (a, y_const)))
    assert hash(p) == hash(p)  # a cached hash stays the same
    assert hash(Atom("rain")) == hash(("rain", ()))
    for t in (a, x, y_const):
        assert hash(t) == hash((t.sort, t.name, t.is_var)) == hash(t)  # cached, unchanged
        copy = pickle.loads(pickle.dumps(t))
        assert copy == t and hash(copy) == hash(t)


def test_equal_atoms_built_apart_share_a_dict_entry():
    first = Atom("at", (agent_const("a"), object_const("y")))
    second = Atom("at", (Term("agent", "a"), Term(OBJECT, "y")))
    assert first is not second and first == second
    table = {first: 1}
    hash(first)  # cache the first atom's hash only
    assert table[second] == 1
    assert second in {first} and first in {second}


def test_pickled_atom_hashes_like_a_fresh_one_in_another_process():
    # String hashes differ between processes, so a hash cached here must
    # not travel with the atom.
    p = Atom("at", (agent_const("a"), object_const("y")))
    hash(p)
    check = (
        "import pickle, sys\n"
        "p = pickle.loads(sys.stdin.buffer.read())\n"
        "assert hash(p) == hash((p.predicate, p.args)), 'stale atom hash'\n"
        "assert hash(p.args[0]) == hash(('agent', 'a', False)), 'stale term hash'\n"
        "assert p in {Atom('at', (agent_const('a'), object_const('y')))}\n"
    )
    src = os.path.dirname(os.path.dirname(deon.__file__))
    # Keep the inherited path: the interpreter may find packages only there.
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", "from deon.logic import *\n" + check],
        input=pickle.dumps(p), env=env, capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()


# -- substitution -----------------------------------------------------------


def test_substitute_rejects_sort_mismatch():
    with pytest.raises(LogicError):
        substitute_atom(Atom("C", (x,)), {x: object_const("o1")})


def test_substitute_rejects_variable_target():
    with pytest.raises(LogicError):
        substitute_atom(Atom("C", (x,)), {x: agent_var("z")})


# -- grounding ----------------------------------------------------------------


def test_ground_expands_forall_over_agents():
    f = ForAll(x, Implies(atom("C", x), atom("A", x)))
    expected = And((
        Implies(atom("C", agent_const("a")), atom("A", agent_const("a"))),
        Implies(atom("C", agent_const("b")), atom("A", agent_const("b"))),
    ))
    assert ground(f, (A, B)) == expected


def test_ground_atom_passthrough():
    f = atom("C1", agent_const("a"))
    assert ground(f, (A,)) == f


def _theft_plan() -> ActionPlan:
    av = agent_var("a")
    return ActionPlan(
        id="steal",
        agent=A,
        reasons=(SignedAtom(Atom("C1", (av,))), SignedAtom(Atom("C2", (av,)))),
        action=SignedAtom(Atom("A", (av,))),
    )


def test_ground_universalized_plan_matches_hand_expansion():
    # Frozen from expanding "everyone with these reasons acts" by hand over
    # agents {a, b}: two material conditionals plus the trigger atom. The
    # grounded tree nests one conjunction per quantifier; its clauses are
    # those of the flat conjunction.
    plan = _theft_plan()
    got = ground(plan.universal_adoption(), (A, B), ())
    a, b = agent_const("a"), agent_const("b")
    expected = And((
        Implies(And((atom("C1", a), atom("C2", a))), atom("A", a)),
        Implies(And((atom("C1", b), atom("C2", b))), atom("A", b)),
        AtomF(universalization_trigger("steal")),
    ))
    assert to_clauses(got) == to_clauses(expected)


def test_ground_full_generalization_body():
    # The whole body: universal adoption plus the agent's own reasons/action.
    plan = _theft_plan()
    a = agent_const("a")
    body = And((
        plan.universal_adoption(),
        atom("C1", a),
        atom("C2", a),
        atom("A", a),
    ))
    got = ground(body, (A, B), ())
    assert isinstance(got, And)
    assert got.parts[1:] == (atom("C1", a), atom("C2", a), atom("A", a))
    assert_ground(got)


def test_ground_object_variable_product():
    f = ForAll(x, ForAll(y, Not(atom("C", x, y))))
    got = ground(f, (A, B), (object_const("o1"), object_const("o2")))
    # 2 agents x 2 objects = 4 instances
    flat = [p for outer in got.parts for p in outer.parts]
    assert len(flat) == 4
    assert flat[0] == Not(atom("C", agent_const("a"), object_const("o1")))


def test_a_free_variable_is_left_for_clause_conversion_to_reject():
    # Neither grounding nor compiling closes a free variable over its domain.
    f = atom("C", x)
    assert ground(f, (A, B)) == f
    assert ground(ForAll(y, And((f, atom("D", y)))), (A, B), (object_const("o"),)) == (
        And((f, atom("D", object_const("o"))))
    )
    with pytest.raises(LogicError, match=r"^non-ground atom C\(x\) in clause conversion$"):
        compile_fragment([(f, "")], Grounding((A, B)))


def test_ground_errors():
    with pytest.raises(GroundingError):
        ground(atom("C", agent_const("a")), ())
    with pytest.raises(GroundingError):
        ground(ForAll(y, atom("D", y)), (A,), ())


def test_ground_is_deterministic():
    plan = _theft_plan()
    f = And((plan.universal_adoption(), ForAll(x, atom("C", x))))
    runs = {ground(f, (A, B), ()) for _ in range(3)}
    assert len(runs) == 1


# -- clause conversion ----------------------------------------------------------


def test_to_clauses_unit():
    cs = to_clauses(atom("C1", agent_const("a")))
    assert cs.clauses == ((1,),)
    assert cs.aux_count == 0


def test_to_clauses_direct_contradiction_unsat():
    f = And((atom("C3"), Not(atom("C3"))))
    assert not solve(to_clauses(f)).satisfiable


def test_to_clauses_modus_ponens_conflict_unsat():
    p, q = atom("p"), atom("q")
    f = And((Implies(p, q), p, Not(q)))
    assert not solve(to_clauses(f)).satisfiable


def test_to_clauses_rejects_modal_and_nonground():
    with pytest.raises(LogicError):
        to_clauses(atom("C", x))
    with pytest.raises(LogicError):
        to_clauses(ForAll(x, atom("C", x)))
    with pytest.raises(LogicError):
        compile_fragment([(atom("C", x), "")])
    with pytest.raises(LogicError):
        ClauseBuilder(compile_fragment([])).add(atom("C", x)).build()


@pytest.mark.parametrize("kind", ["by hand", "a query's clause set", "a replaced copy"])
def test_a_query_against_a_theory_without_a_grounding_table_is_refused(kind):
    # A query grounds through its theory's table, which only a fragment
    # `compile_fragment` made keeps.
    compiled = compile_fragment([(Or((atom("p"), atom("q"))), "theory")])
    theory = {
        "by hand": GroundClauseSet((atom("p").atom, atom("q").atom), 0, ((1, 2),), ("theory",)),
        "a query's clause set": ClauseBuilder(compiled).add(atom("p")).build().clause_set,
        "a replaced copy": dataclasses.replace(compiled),
    }[kind]
    assert theory == compiled or kind == "a query's clause set"
    message = "^a query's theory has no grounding table: compile the theory with compile_fragment$"
    for parts in ([], [atom("p")]):
        builder = ClauseBuilder(theory)
        for part in parts:
            builder.add(part)
        with pytest.raises(LogicError, match=message):
            builder.build()


def test_clause_builder_labels():
    builder = ClauseBuilder(compile_fragment([]))
    builder.add(atom("p"), "first part")
    builder.add(Or((Not(atom("p")), atom("q"))), "second part")
    cs = builder.build()
    assert cs.label_of(0) == "first part"
    assert cs.label_of(1) == "second part"
    assert cs.clause_str(1) == "not p or q"


def test_to_clauses_empty_conjunction_is_satisfiable():
    cs = to_clauses(TRUE)
    assert cs.clauses == ()
    assert solve(cs).satisfiable


def test_to_clauses_empty_disjunction_is_unsatisfiable():
    assert not solve(to_clauses(Or(()))).satisfiable


def test_dimacs_shape():
    cs = to_clauses(And((atom("p"), Or((Not(atom("p")), atom("q"))))))
    text = cs.to_dimacs()
    lines = text.strip().split("\n")
    assert any(line.startswith("p cnf ") for line in lines)
    assert all(line.endswith(" 0") for line in lines if line and line[0] in "-0123456789")


# -- equisatisfiability against exhaustive formula evaluation --------------------


def _random_formula(rng: random.Random, atoms: list[Atom], depth: int):
    if depth == 0 or rng.random() < 0.3:
        return AtomF(rng.choice(atoms))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(_random_formula(rng, atoms, depth - 1))
    if kind == 1:
        return Implies(
            _random_formula(rng, atoms, depth - 1), _random_formula(rng, atoms, depth - 1)
        )
    parts = tuple(
        _random_formula(rng, atoms, depth - 1) for _ in range(rng.randint(2, 3))
    )
    return And(parts) if kind == 2 else Or(parts)


def _formula_satisfiable_by_enumeration(f, atoms: list[Atom]) -> bool:
    n = len(atoms)
    for i in range(2**n):
        assignment = {atoms[j]: bool((i >> (n - 1 - j)) & 1) for j in range(n)}
        if evaluate_formula(f, assignment):
            return True
    return False


def test_to_clauses_equisatisfiable_small_formulas():
    rng = random.Random(20240801)
    for trial in range(400):
        n = rng.randint(1, 6)
        atoms = [Atom(f"p{i}") for i in range(n)]
        f = _random_formula(rng, atoms, depth=rng.randint(1, 4))
        expected = _formula_satisfiable_by_enumeration(f, atoms)
        cs = to_clauses(f)
        assert cs.num_vars <= 12 + cs.aux_count
        got = solve(cs)
        assert got.satisfiable == expected, f"trial {trial}: {f}"
        if got.satisfiable:
            assert got.model.satisfies(cs)
            # The witness restricted to real atoms satisfies the formula itself.
            assignment = got.model.atom_values(cs)
            for a in atoms:
                assignment.setdefault(a, False)
            assert evaluate_formula(f, assignment)
        assert brute_force(cs).satisfiable == expected


# -- hypothesis properties -------------------------------------------------------


_atom_names = st.sampled_from(["p", "q", "r", "s"])


@st.composite
def ground_formulas(draw, max_depth=4):
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        return AtomF(Atom(draw(_atom_names)))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Not(draw(ground_formulas(max_depth=depth - 1)))
    if kind == 1:
        return Implies(
            draw(ground_formulas(max_depth=depth - 1)),
            draw(ground_formulas(max_depth=depth - 1)),
        )
    parts = draw(st.lists(ground_formulas(max_depth=depth - 1), min_size=2, max_size=3))
    return And(tuple(parts)) if kind == 2 else Or(tuple(parts))


@given(ground_formulas())
@settings(max_examples=150, deadline=None)
def test_solver_matches_truth_table(f):
    atoms = sorted({a for a in _collect_atoms(f)}, key=lambda a: a.predicate)
    expected = _formula_satisfiable_by_enumeration(f, atoms)
    assert solve(to_clauses(f)).satisfiable == expected


def _collect_atoms(f):
    from deon.logic import atoms_of

    return set(atoms_of(f))
