"""Every solve of a pinned set of engine queries, against a recorded snapshot.

`SatResult` equality ignores `decisions` and `propagations`, and the
reference solver counts no propagations, so neither the differential tests
nor the goldens notice a solver that reaches the same answers by other
steps. This test does: `tests/snapshots/solve_records.json` holds, for every
query `evaluate` decides on the bundled scenarios, the chain-rule scenario
and the 12-agent fixpoint chain, the whole result of solving it under the
default budget and under budgets 1, 2 and 3. The snapshot is never
regenerated: a solver whose records differ has changed its search.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from test_query_differential import SOURCES

from deon import scenarios
from deon.dsl import parse_scenario
from deon.principles import evaluate
from deon.sat import DEFAULT_BUDGET, BudgetExhausted, solve

SNAPSHOT = Path(__file__).parent / "snapshots" / "solve_records.json"
NAMES = (*scenarios.NAMES, "chain_rule", "fixpoint_12")
BUDGETS = (DEFAULT_BUDGET, 1, 2, 3)


def record(cs, budget: int) -> dict:
    """One solve's outcome: verdict, counts and evidence, or the decision
    at which the budget ran out. A witness is written as a 0/1 string."""
    try:
        result = solve(cs, budget)
    except BudgetExhausted as exc:
        return {"budget_exhausted": exc.decisions}
    doc = {"satisfiable": result.satisfiable, "decisions": result.decisions,
           "propagations": result.propagations}
    if result.satisfiable:
        doc["model"] = "".join("01"[v] for v in result.model.values)
    else:
        doc["conflict"] = list(result.conflict.clause_indices)
    return doc


def records(name: str) -> list[dict]:
    """The records of every query `evaluate` decides on scenario `name`, in
    the order it decides them."""
    parsed = parse_scenario(SOURCES[name])
    assert parsed.ok, [str(d) for d in parsed.diagnostics]
    return [
        {"check": q.check, "budgets": {str(b): record(q.query, b) for b in BUDGETS}}
        for q in evaluate(parsed.scenario).queries
    ]


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())


def test_the_snapshot_covers_every_scenario(snapshot):
    # Witnesses, conflicts and budgets running out each occur.
    assert tuple(snapshot) == NAMES
    assert sum(map(len, snapshot.values())) == 76
    kinds = {
        "budget_exhausted" if "budget_exhausted" in got else got["satisfiable"]
        for queries in snapshot.values() for query in queries
        for got in query["budgets"].values()
    }
    assert kinds == {True, False, "budget_exhausted"}


@pytest.mark.parametrize("name", NAMES)
def test_every_solve_matches_its_recorded_result(name, snapshot):
    got = records(name)
    assert [r["check"] for r in got] == [r["check"] for r in snapshot[name]]
    for have, want in zip(got, snapshot[name]):
        assert have == want, have["check"]
