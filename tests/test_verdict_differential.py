"""The verdict engine against the oracle it must print the same as.

`reference_principles.evaluate` is the fixpoint engine before its
per-evaluation memo: it builds and solves every query afresh in every
round with the reference builder and solver. The engine must print exactly
the same JSON and `explain` text, under the default budget and under
budgets of 1 to 5 decisions, which reach the budget notes. The inputs are
the bundled scenarios, the small scenarios of `test_principles` that
oscillate or run out of budget, fixpoint chains of up to 12 agents, and
generated scenarios.
"""

from __future__ import annotations

import dataclasses

import pytest
import reference_principles
from hypothesis import given, settings
from test_principles import CAKE, FOG, HAZE, NOISE, STANDOFF
from test_query_differential import fixpoint_chain
from test_roundtrip_property import scenario_texts

from deon import scenarios
from deon.cli import render_human, render_structured
from deon.dsl import parse_scenario
from deon.principles import evaluate
from deon.sat import DEFAULT_BUDGET

BUDGETS = (DEFAULT_BUDGET, 1, 2, 3, 4, 5)

SOURCES = {name: scenarios.source(name) for name in scenarios.NAMES}
SOURCES.update(cake=CAKE, fog=FOG, haze=HAZE, noise=NOISE, standoff=STANDOFF)
SOURCES.update({f"fixpoint_{n}": fixpoint_chain(n) for n in (2, 3, 5, 8, 12)})
# The facts alone rule out p's action, and q's action names none of p's
# atoms: p's autonomy fail comes from p's action alone.
SOURCES["infeasible"] = (
    "scenario infeasible\n"
    "agents a, b\n"
    "predicates want(agent), go(agent) action, wait(agent) action\n"
    "physics { not go(a); }\n"
    "plan p agent a: reasons { want(a) } action { go(a) }\n"
    "plan q agent b: reasons { want(b) } action { wait(b) }\n"
)


def assert_prints_like_reference(source: str, budget: int) -> None:
    parsed = parse_scenario(source)
    assert parsed.ok, [str(d) for d in parsed.diagnostics]
    assert_evaluates_like_reference(parsed.scenario, budget)


def assert_evaluates_like_reference(scenario, budget: int):
    engine = evaluate(scenario, budget)
    reference = reference_principles.evaluate(scenario, budget)
    assert render_structured(engine) == render_structured(reference)
    assert render_human(engine, explain=True) == render_human(reference, explain=True)
    return engine


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", SOURCES)
def test_verdicts_print_like_reference(name, budget):
    assert_prints_like_reference(SOURCES[name], budget)


# Plans x and x:a interfere with a:b and b through the physics, so their
# pair queries are asked; ("autonomy", "x", "a:b", "actions") and
# ("autonomy", "x:a", "b", "actions") both print as autonomy:x:a:b:actions.
COLONS = (
    "scenario colons\n"
    "agents a1, a2, a3, a4\n"
    "predicates want(agent), go(agent) action\n"
    "physics { not (go(a1) and go(a3)); not go(a2) or go(a4); }\n"
    "plan p1 agent a1: reasons { want(a1) } action { go(a1) }\n"
    "plan p2 agent a2: reasons { want(a2) } action { go(a2) }\n"
    "plan p3 agent a3: reasons { want(a3) } action { go(a3) }\n"
    "plan p4 agent a4: reasons { want(a4) } action { go(a4) }\n"
)


@pytest.mark.parametrize("budget", BUDGETS)
def test_plan_ids_with_colons_get_a_record_each(budget):
    # The DSL does not accept such ids; a scenario built in Python can hold them.
    parsed = parse_scenario(COLONS)
    assert parsed.ok, [str(d) for d in parsed.diagnostics]
    plans = tuple(
        dataclasses.replace(plan, id=new_id)
        for plan, new_id in zip(parsed.scenario.plans, ("x", "x:a", "a:b", "b"))
    )
    engine = assert_evaluates_like_reference(
        dataclasses.replace(parsed.scenario, plans=plans), budget
    )
    records = [(q.check, q.clause_set) for q in engine.queries]
    assert len(set(records)) == len(records)
    if budget == DEFAULT_BUDGET:
        # x's pair with a:b clashes; x:a's pair with b does not.
        assert engine.statuses()["x:a"] == "ethical"
        assert [q.satisfiable for q in engine.queries
                if q.check == "autonomy:x:a:b:actions"] == [False, True]


@given(scenario_texts())
@settings(max_examples=40, deadline=None)
def test_generated_verdicts_print_like_reference(text):
    for budget in BUDGETS:
        assert_prints_like_reference(text, budget)
