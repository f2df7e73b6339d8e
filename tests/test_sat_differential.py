"""The watched-literal solver against the rescanning solver it replaced.

`reference_sat.solve` is the original solver. Both must agree on the whole
result: verdict, witness model, conflict clause indices, and the decision
count at which a budget runs out. The cases are every query the engine asks
on the bundled scenarios, every query of a chain-rule scenario with a few
hundred variables, and seeded random clause sets of up to 300 variables.
"""

from __future__ import annotations

import random

import pytest
from reference_sat import solve as reference_solve

from deon import scenarios
from deon.dsl import parse_scenario
from deon.logic import Atom, GroundClauseSet
from deon.principles import evaluate
from deon.sat import DEFAULT_BUDGET, BudgetExhausted, solve

BUDGETS = (1, 2, 3, 10, 100, DEFAULT_BUDGET)

#: Seven agents, one object and a three-deep chain rule, the shape of the
#: benchmark's scaling family: `evaluate` decides 11 queries of 660-677
#: clauses and at most 296 variables.
CHAIN_RULE = """\
scenario chain_rule

agents ag0, ag1, ag2, ag3, ag4, ag5, ag6
objects ob0

predicates
  link(agent, agent),
  idle(agent, agent),
  has(agent, object),
  want0(agent, object),
  act0(agent, object) action,
  want1(agent),
  act1(agent) action,
  want2(agent),
  act2(agent) action

physics {
  forall x1. forall x2. forall y. link(x1, x2) and has(x1, y) -> has(x2, y);
  forall x. forall z. link(x, z) or idle(x, z);
  forall x. forall y. act0(x, y) -> has(x, y);
  forall x. forall y. act1(x) -> has(x, y);
  forall x. forall y. act2(x) -> has(x, y);
  forall x. forall z. not (act1(x) and act2(z));
  forall x. forall z. not (want1(x) and want2(z));
}

plan p0 agent ag1 forall y:
  reasons { want0(ag1, y) }
  action { act0(ag1, y) }

plan p1 agent ag3:
  reasons { want1(ag3) }
  action { act1(ag3) }

plan p2 agent ag5:
  reasons { want2(ag5) }
  action { act2(ag5) }

on_universalized p0 {
  forall x. forall y. not want0(x, y);
}
"""


def outcome(solver, cs: GroundClauseSet, budget: int) -> tuple:
    try:
        result = solver(cs, budget)
    except BudgetExhausted as exc:
        return ("budget exhausted", exc.decisions)
    if result.satisfiable:
        return (True, result.model.values)
    return (False, result.conflict.clause_indices)


def assert_same(cs: GroundClauseSet, budgets=BUDGETS) -> list[tuple]:
    outcomes = []
    for budget in budgets:
        expected = outcome(reference_solve, cs, budget)
        assert outcome(solve, cs, budget) == expected, (budget, cs.to_dimacs())
        outcomes.append(expected)
    return outcomes


def engine_queries(source: str) -> list[GroundClauseSet]:
    parsed = parse_scenario(source)
    assert parsed.ok, [str(d) for d in parsed.diagnostics]
    log = evaluate(parsed.scenario).queries
    distinct = {(q.clause_set.atoms, q.clause_set.clauses): q.clause_set for q in log}
    return list(distinct.values())


@pytest.mark.parametrize("name", scenarios.NAMES)
def test_golden_queries(name):
    queries = engine_queries(scenarios.source(name))
    assert queries
    for cs in queries:
        assert_same(cs)


def test_chain_rule_queries():
    queries = engine_queries(CHAIN_RULE)
    assert max(cs.num_vars for cs in queries) > 250
    verdicts = {assert_same(cs)[-1][0] for cs in queries}
    assert verdicts == {True, False}


def random_clause_set(rng: random.Random) -> GroundClauseSet:
    """Mostly 2- and 3-literal clauses, with unit clauses, repeated literals
    (`x or x or y`) and tautologies (`x or not x`) mixed in."""
    n = rng.randint(1, 300)
    m = max(1, int(rng.choice((0.5, 1.0, 2.0, 3.0, 4.3)) * n))
    clauses = []
    for _ in range(m):
        width = rng.choice((1, 2, 2, 3, 3, 3, 4))
        clause = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(width)]
        kind = rng.random()
        if kind < 0.05:
            clause.append(clause[0])
        elif kind < 0.08:
            clause.append(-clause[0])
        rng.shuffle(clause)
        clauses.append(tuple(clause))
    return GroundClauseSet(tuple(Atom(f"v{i}") for i in range(n)), 0, tuple(clauses))


def test_random_clause_sets():
    rng = random.Random(0x5A7)
    seen = set()
    for _ in range(150):
        # The largest budget stays small: a hard random set would take the
        # rescanning solver minutes to finish.
        outcomes = assert_same(random_clause_set(rng), budgets=(1, 2, 3, 10, 100, 2000))
        seen.add(outcomes[-1][0])
    assert seen == {True, False, "budget exhausted"}


@pytest.mark.parametrize(
    "clauses",
    [
        [(1, 1)],
        [(1, 1), (-1,)],
        [(1, -1)],
        [(1, -1), (2, 2, -1), (-2,)],
        [(1, 2, 1), (-1, -1), (-2, 2, -2)],
    ],
)
def test_repeated_literals_and_tautologies(clauses):
    n = max(abs(lit) for cl in clauses for lit in cl)
    assert_same(GroundClauseSet(tuple(Atom(f"v{i}") for i in range(n)), 0, tuple(clauses)))
