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
    engine = evaluate(parsed.scenario, budget)
    reference = reference_principles.evaluate(parsed.scenario, budget)
    assert render_structured(engine) == render_structured(reference)
    assert render_human(engine, explain=True) == render_human(reference, explain=True)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", SOURCES)
def test_verdicts_print_like_reference(name, budget):
    assert_prints_like_reference(SOURCES[name], budget)


@given(scenario_texts())
@settings(max_examples=40, deadline=None)
def test_generated_verdicts_print_like_reference(text):
    for budget in BUDGETS:
        assert_prints_like_reference(text, budget)
