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
"""

from __future__ import annotations

import random
from collections import Counter

import reference_logic
from reference_sat import solve as reference_solve
from test_query_differential import random_formula
from test_sat_differential import outcome

from deon.logic import (
    Atom,
    AtomF,
    ClauseBuilder,
    Not,
    Or,
    TheoryQuery,
    agent_const,
    compile_fragment,
)
from deon.sat import DEFAULT_BUDGET, solve

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
