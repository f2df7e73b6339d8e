"""The verdict engine against the oracle it must print the same as.

`reference_principles.evaluate` is the fixpoint engine before its
per-evaluation memo: it builds and solves every query afresh in every
round with the reference builder and solver. The engine must print exactly
the same JSON and `explain` text, under the default budget and under
budgets of 1 to 5 decisions, which reach the budget notes. Its query log
must hold the queries the oracle's rounds ask, each once, in the order the
oracle first asks them. The inputs are
the bundled scenarios, the small scenarios of `test_principles` that
oscillate or run out of budget, fixpoint chains of up to 12 agents, and
generated scenarios, among them random interference graphs.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest
import reference_logic
import reference_principles
from hypothesis import given, settings, strategies as st
from test_principles import CAKE, FOG, HAZE, NOISE, STANDOFF
from test_query_differential import fixpoint_chain
from test_roundtrip_property import scenario_texts

from deon import scenarios
from deon.cli import render_human, render_structured
from deon.dsl import parse_scenario
from deon.principles import (
    INDETERMINATE,
    PlanInterference,
    QueryCompiler,
    QueryConflict,
    ReasonsContradiction,
    evaluate,
)
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
# Under a 2-decision budget pa's pair with pb runs out of budget, and pb
# fails generalization: pa is indeterminate in round 1, then ethical once pb
# has left protection.
SOURCES["noise_lifted"] = NOISE + "on_universalized pb { forall x. not want(x); }\n"
# p0 interferes with p1 and p5. p5 stays protected; p1 leaves protection,
# rejoins it and leaves it again as the chain p1 -> p4 -> p3 -> p2 settles.
# So p0 has two failing partners at once, and once p1 leaves the second
# time, p0's pair with p3, ahead of p5 in plan order, must be decided.
SOURCES["rejoin"] = (
    "scenario rejoin\n"
    "agents ag0, ag1, ag2, ag3, ag4, ag5\n"
    "predicates " + ", ".join(f"want{i}(agent), act{i}(agent) action" for i in range(6)) + "\n"
    "belief ag0 { not (act0(ag0) and act1(ag1)); not (act0(ag0) and act5(ag5)); }\n"
    "belief ag1 { not (act1(ag1) and act4(ag4)); }\n"
    "belief ag3 { not (act3(ag3) and act2(ag2)); }\n"
    "belief ag4 { not (act4(ag4) and act3(ag3)); }\n"
    + "".join(
        f"plan p{i} agent ag{i}: reasons {{ want{i}(ag{i}) }} action {{ act{i}(ag{i}) }}\n"
        for i in (1, 0, 2, 3, 4, 5)
    )
    + "on_universalized p2 { forall x. not want2(x); }\n"
)


def assert_prints_like_reference(source: str, budget: int) -> None:
    parsed = parse_scenario(source)
    assert parsed.ok, [str(d) for d in parsed.diagnostics]
    assert_evaluates_like_reference(parsed.scenario, budget)


def assert_evaluates_like_reference(scenario, budget: int):
    engine = evaluate(scenario, budget)
    reference, asked = evaluate_reference(scenario, budget)
    assert render_structured(engine) == render_structured(reference)
    assert render_human(engine, explain=True) == render_human(reference, explain=True)
    assert [q.check for q in engine.queries] == asked
    return engine


def evaluate_reference(scenario, budget: int):
    """The oracle's verdicts, and the check ids of the queries its rounds
    ask, each on first asking, keyed as the engine keys them."""
    independent = QueryCompiler(scenario)._independent
    asked: dict[tuple[str, ...], None] = {}
    check_generalization = reference_principles.check_generalization
    check_autonomy_pair = reference_principles.check_autonomy_pair

    def generalization(plan, scenario, budget):
        asked.setdefault(("generalization", plan.id))
        return check_generalization(plan, scenario, budget)

    def autonomy_pair(plan, other, scenario, budget):
        verdict = check_autonomy_pair(plan, other, scenario, budget)
        if independent(plan, other):
            asked.setdefault(("autonomy", plan.id, "actions"))
        else:
            asked.setdefault(("autonomy", plan.id, other.id, "actions"))
        # The reasons query is asked once the actions query is refuted.
        reasons_asked = isinstance(verdict.evidence, (ReasonsContradiction, PlanInterference))
        if verdict.status == INDETERMINATE:
            actions = reference_logic.autonomy_pair_queries(plan, other, scenario)[0]
            reasons_asked = isinstance(reference_principles._decide(actions, budget), QueryConflict)
        if reasons_asked:
            asked.setdefault(("autonomy", plan.id, other.id, "reasons"))
        return verdict

    with mock.patch.multiple(
        reference_principles,
        check_generalization=generalization,
        check_autonomy_pair=autonomy_pair,
    ):
        reference = reference_principles.evaluate(scenario, budget)
    return reference, [":".join(key) for key in asked]


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


@st.composite
def interference_graphs(draw) -> str:
    """Interference graphs with one plan per agent, in shuffled plan order.

    An edge i -> j is the conflict `not (act_i(ag_i) and act_j(ag_j))` in
    ag_i's beliefs, so p_i's pair with p_j fails while p_j is protected.
    Half of the graphs are a chain of 4-6 plans whose last plan fails
    generalization, 1-2 plans off the chain, and a hub with an edge to every
    other plan. The chain's plans leave and rejoin protection in different
    rounds while the plans off it stay protected, so the hub has several
    failing partners that come and go. The other half are 2-4 agents whose
    plans share one predicate pair, with conflicts in the physics or in the
    acting agent's beliefs and `noise` disjunctions in the physics: there a
    pair's reasons query can run out of budget while the plan's
    generalization query, in which the plan's action fixes more atoms, does
    not. Both kinds get random universalization effects that deny a plan's
    own reasons, at least one in the second kind, and random extra
    conflicts, each held by a random agent.
    """
    shared = draw(st.booleans())
    if shared:
        n = draw(st.integers(2, 4))
        kind = [0] * n
    else:
        chain, off = draw(st.integers(4, 6)), draw(st.integers(1, 2))
        n = chain + off + 1
        kind = list(range(n))
    agents = range(n)
    pair = st.lists(st.sampled_from(agents), min_size=2, max_size=2, unique=True).map(tuple)
    if shared:
        edges = draw(st.lists(pair, min_size=1, max_size=n + 1))
    else:
        edges = [(i, i + 1) for i in range(chain - 1)] + [(n - 1, j) for j in range(n - 1)]

    def conflict(i: int, j: int) -> str:
        return f"not (act{kind[i]}(ag{i}) and act{kind[j]}(ag{j}));"

    physics, beliefs = [], {}
    for i, j in edges:
        if shared and draw(st.booleans()):
            physics.append(conflict(i, j))
        else:
            beliefs.setdefault(i, []).append(conflict(i, j))
    for i, j in draw(st.lists(pair, max_size=n)):
        beliefs.setdefault(draw(st.sampled_from((i, j, *agents))), []).append(conflict(i, j))
    if shared:
        noise = draw(st.lists(pair, min_size=1, max_size=2))
        physics += [f"noise(ag{i}) or noise(ag{j});" for i, j in noise]
    effects = draw(st.sets(st.sampled_from(agents), min_size=int(shared), max_size=n // 2))
    if not shared:
        effects.add(chain - 1)
    lines = [
        "scenario graph",
        "agents " + ", ".join(f"ag{i}" for i in agents),
        "predicates noise(agent), "
        + ", ".join(f"want{k}(agent), act{k}(agent) action" for k in sorted(set(kind))),
    ]
    if physics:
        lines.append(f"physics {{ {' '.join(physics)} }}")
    lines += [f"belief ag{h} {{ {' '.join(b)} }}" for h, b in sorted(beliefs.items())]
    lines += [
        f"plan p{i} agent ag{i}: reasons {{ want{kind[i]}(ag{i}) }} action {{ act{kind[i]}(ag{i}) }}"
        for i in draw(st.permutations(agents))
    ]
    lines += [
        f"on_universalized p{i} {{ forall x. not want{kind[i]}(x); }}" for i in sorted(effects)
    ]
    return "\n".join(lines) + "\n"


@given(interference_graphs())
@settings(max_examples=40, deadline=None)
def test_interference_graphs_print_like_reference(text):
    for budget in BUDGETS:
        assert_prints_like_reference(text, budget)
