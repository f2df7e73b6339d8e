"""Queries built from compiled theory fragments against the original builder.

`reference_logic` builds every query from scratch: it grounds and converts
the whole theory each time. The engine compiles each agent's theory once
and splices it in. Both must give equal clause sets (atoms in the same
order, aux count, clauses and labels) on every plan and every ordered pair
of plans of distinct agents, on every query `evaluate` asks, and on seeded
random formulas. Compilers must not share state between scenarios or
threads.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
import threading

import pytest
import reference_logic
from hypothesis import given, settings
from test_roundtrip_property import scenario_texts
from test_sat_differential import CHAIN_RULE

from deon import principles, scenarios
from deon.dsl import parse_scenario
from deon.logic import (
    And,
    Atom,
    AtomF,
    ClauseBuilder,
    ForAll,
    Formula,
    Implies,
    Not,
    Or,
    agent_const,
    agent_var,
    compile_fragment,
    ground,
    object_const,
    object_var,
)
from deon.principles import (
    GENERALIZATION,
    AutonomyClear,
    PlanInterference,
    QueryCompiler,
    QueryConflict,
    ReasonsContradiction,
    Witness,
    evaluate,
)
from deon.sat import DEFAULT_BUDGET


def fixpoint_chain(n: int) -> str:
    """n agents; agent i believes its action excludes agent i+1's, and the
    last plan's universalization effect denies its own reasons."""
    preds = []
    for i in range(n):
        preds += [f"want{i}(agent)", f"act{i}(agent) action"]
    beliefs = "".join(
        f"belief ag{i} {{\n  not (act{i}(ag{i}) and act{i + 1}(ag{i + 1}));\n}}\n"
        for i in range(n - 1)
    )
    plans = "".join(
        f"plan p{i} agent ag{i}:\n  reasons {{ want{i}(ag{i}) }}\n  action {{ act{i}(ag{i}) }}\n"
        for i in range(n)
    )
    return (
        f"scenario fixpoint_{n}\n\nagents {', '.join(f'ag{i}' for i in range(n))}\n\n"
        "predicates\n  " + ",\n  ".join(preds) + "\n\n" + beliefs + "\n" + plans
        + f"\non_universalized p{n - 1} {{\n  forall x. not want{n - 1}(x);\n}}\n"
    )


SOURCES = {name: scenarios.source(name) for name in scenarios.NAMES}
SOURCES["chain_rule"] = CHAIN_RULE
SOURCES["fixpoint_12"] = fixpoint_chain(12)


def load(name: str):
    parsed = parse_scenario(SOURCES[name])
    assert parsed.ok, [str(d) for d in parsed.diagnostics]
    return parsed.scenario


@pytest.mark.parametrize("name", SOURCES)
def test_every_plan_and_pair_matches_reference(name):
    scenario = load(name)
    shared = QueryCompiler(scenario)
    for plan in scenario.plans:
        expected = reference_logic.generalization_query(plan, scenario)
        assert QueryCompiler(scenario).generalization(plan) == expected
        assert shared.generalization(plan) == expected
        for other in scenario.plans:
            if other.agent == plan.agent:
                continue
            expected_pair = reference_logic.autonomy_pair_queries(plan, other, scenario)
            assert QueryCompiler(scenario).autonomy_pair(plan, other) == expected_pair
            assert shared.autonomy_pair(plan, other) == expected_pair


def assert_action_parts_build_to_units(scenario) -> None:
    # An action part adds only unit clauses over its atoms, so adding it to
    # a query whose other parts name none of them changes no step of the
    # search (see test_sat's fresh-unit test).
    for plan in scenario.plans:
        cs = (
            ClauseBuilder()
            .add(ground(plan.action_formula(), scenario.agents, scenario.objects))
            .build()
        )
        assert cs.aux_count == 0, plan.id
        assert all(len(clause) == 1 for clause in cs.clauses), plan.id


@pytest.mark.parametrize("name", SOURCES)
def test_every_action_part_builds_to_unit_clauses(name):
    assert_action_parts_build_to_units(load(name))


@given(scenario_texts())
@settings(max_examples=60, deadline=None)
def test_every_generated_action_part_builds_to_unit_clauses(text):
    parsed = parse_scenario(text)
    assert parsed.ok, [str(d) for d in parsed.diagnostics]
    assert_action_parts_build_to_units(parsed.scenario)


def reference_query(check: str, scenario):
    kind, *ids = check.split(":")
    if kind == "generalization":
        return reference_logic.generalization_query(scenario.plan(ids[0]), scenario)
    if len(ids) == 2:  # autonomy:<plan>:actions, the plan's action alone
        return reference_logic.action_alone_query(scenario.plan(ids[0]), scenario)
    plan_id, other_id, disjunct = ids
    actions, reasons = reference_logic.autonomy_pair_queries(
        scenario.plan(plan_id), scenario.plan(other_id), scenario
    )
    return actions if disjunct == "actions" else reasons


@pytest.mark.parametrize("name", SOURCES)
def test_every_engine_query_matches_reference(name):
    scenario = load(name)
    log = evaluate(scenario).queries
    assert log
    expected = {}
    for query in log:
        if query.check not in expected:
            expected[query.check] = reference_query(query.check, scenario)
        assert query.clause_set == expected[query.check], query.check


# -- work done per query ---------------------------------------------------------------

# `pa` against `pb`: the actions clash, so the reasons query is asked too.
# `pa` against `pw`: `wait(b)` is named nowhere else, so `pa`'s action alone
# decides the actions disjunct; it can hold, so the reasons query is not asked.
CLASHING_AND_COEXISTING = (
    "scenario clash\n"
    "agents a, b\n"
    "predicates want(agent), go(agent) action, wait(agent) action\n"
    "physics { not (go(a) and go(b)); }\n"
    "plan pa agent a: reasons { want(a) } action { go(a) }\n"
    "plan pb agent b: reasons { want(b) } action { go(b) }\n"
    "plan pw agent b: reasons { want(b) } action { wait(b) }\n"
)


@pytest.mark.parametrize("name", [*scenarios.NAMES, "clash"])
def test_each_built_query_is_solved_once(name, monkeypatch):
    source = CLASHING_AND_COEXISTING if name == "clash" else SOURCES[name]
    parsed = parse_scenario(source)
    assert parsed.ok, [str(d) for d in parsed.diagnostics]
    scenario = parsed.scenario
    built: list = []
    solved: list = []

    def counting_build(self):
        built.append(build(self))
        return built[-1]

    def counting_solve(cs, budget):
        solved.append(cs)
        return solve(cs, budget)

    build, solve = ClauseBuilder.build, principles.solve
    monkeypatch.setattr(ClauseBuilder, "build", counting_build)
    monkeypatch.setattr(principles, "solve", counting_solve)
    log = evaluate(scenario).queries
    assert solved and [q.clause_set for q in log] == solved
    assert len(built) == len(solved)
    assert all(b is s for b, s in zip(built, solved))
    if name == "clash":
        outcomes = {q.check: q.satisfiable for q in log}
        assert outcomes["autonomy:pa:actions"] is True
        assert "autonomy:pa:pw:actions" not in outcomes
        assert "autonomy:pa:pw:reasons" not in outcomes
        assert outcomes["autonomy:pa:pb:actions"] is False
        assert outcomes["autonomy:pa:pb:reasons"] is True
        for plan in scenario.plans:
            for other in scenario.plans:
                if other.agent != plan.agent:
                    assert QueryCompiler(scenario).autonomy_pair(plan, other) == (
                        reference_logic.autonomy_pair_queries(plan, other, scenario)
                    )


@pytest.mark.parametrize("name", [*SOURCES, "clash"])
def test_each_query_is_solved_at_most_once_per_evaluation(name):
    # Verdicts that do not depend on the round are decided in the first
    # round that consults them and reused after that.
    parsed = parse_scenario(CLASHING_AND_COEXISTING if name == "clash" else SOURCES[name])
    assert parsed.ok, [str(d) for d in parsed.diagnostics]
    plans = parsed.scenario.plans
    log = evaluate(parsed.scenario).queries
    checks = [q.check for q in log]
    assert len(set(checks)) == len(checks)
    ordered_pairs = [(p, q) for p, q in itertools.permutations(plans, 2) if p.agent != q.agent]
    assert len(log) <= len(plans) + 2 * len(ordered_pairs)
    if name == "fixpoint_12":
        assert (len(log), len(plans) + 2 * len(ordered_pairs)) == (46, 276)


# -- the query record ------------------------------------------------------------------


def carried_evidence(verdicts):
    """Each (check id, evidence) pair for a Witness or QueryConflict a verdict carries."""
    decided = {q.check for q in verdicts.queries}

    def actions_check(plan_id: str, other_id: str) -> str:
        pair = f"autonomy:{plan_id}:{other_id}:actions"
        return pair if pair in decided else f"autonomy:{plan_id}:actions"

    for pv in verdicts.plans:
        for check in pv.checks:
            evidence = check.evidence
            if check.principle == GENERALIZATION:
                if isinstance(evidence, (Witness, QueryConflict)):
                    yield f"generalization:{pv.plan_id}", evidence
                continue
            assert not isinstance(evidence, (Witness, QueryConflict, ReasonsContradiction))
            if isinstance(evidence, PlanInterference):
                yield actions_check(pv.plan_id, evidence.other_plan), evidence.actions
                yield f"autonomy:{pv.plan_id}:{evidence.other_plan}:reasons", evidence.reasons
            elif isinstance(evidence, AutonomyClear):
                for other_id, pair in evidence.pairs:
                    if isinstance(pair, ReasonsContradiction):
                        yield f"autonomy:{pv.plan_id}:{other_id}:reasons", pair.reasons
                    else:
                        assert isinstance(pair, Witness)
                        yield actions_check(pv.plan_id, other_id), pair


RECORDED = {name: SOURCES[name] for name in scenarios.NAMES}
RECORDED.update({f"fixpoint_{n}": fixpoint_chain(n) for n in range(2, 7)})


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 2])
@pytest.mark.parametrize("name", RECORDED)
def test_verdict_evidence_is_the_recorded_query_evidence(name, budget):
    parsed = parse_scenario(RECORDED[name])
    assert parsed.ok, [str(d) for d in parsed.diagnostics]
    verdicts = evaluate(parsed.scenario, budget)
    records = {q.check: q for q in verdicts.queries}
    assert len(records) == len(verdicts.queries)
    carried = list(carried_evidence(verdicts))
    assert carried
    for check, evidence in carried:
        assert evidence is records[check].evidence, check
    for query in verdicts.queries:
        if query.evidence is None:
            assert query.satisfiable is None
        else:
            assert query.evidence.clause_set is query.clause_set
            assert query.satisfiable is isinstance(query.evidence, Witness)
            assert query.satisfiable is not isinstance(query.evidence, QueryConflict)
    again = evaluate(parsed.scenario, budget)
    assert again == verdicts and again.queries is not verdicts.queries
    assert repr(verdicts) == repr(dataclasses.replace(verdicts, queries=()))
    assert "ModalQuery" not in repr(verdicts)


# -- random formulas -----------------------------------------------------------------


def random_formula(rng: random.Random, pool: list[Atom], depth: int) -> Formula:
    """Empty and nonempty And/Or, nested Not/Implies, atoms from a small pool."""
    if depth == 0 or rng.random() < 0.25:
        return AtomF(rng.choice(pool))
    kind = rng.choice(("not", "implies", "and", "or"))
    if kind == "not":
        return Not(random_formula(rng, pool, depth - 1))
    if kind == "implies":
        return Implies(random_formula(rng, pool, depth - 1), random_formula(rng, pool, depth - 1))
    parts = tuple(random_formula(rng, pool, depth - 1) for _ in range(rng.choice((0, 1, 2, 3))))
    return And(parts) if kind == "and" else Or(parts)


def test_random_formulas_with_fragments_match_reference():
    rng = random.Random(0x10C)
    for _ in range(400):
        pool = [Atom(f"q{i}", (agent_const("a"),)) for i in range(rng.randint(1, 6))]
        parts = [
            (random_formula(rng, pool, rng.randint(0, 4)), rng.choice(("", "plan", "theory")))
            for _ in range(rng.randint(1, 6))
        ]
        reference = reference_logic.ClauseBuilder()
        for formula, label in parts:
            reference.add(formula, label)
        expected = reference.build()

        # Cut the parts into runs; each run is added as plain parts or as
        # one fragment compiled on its own.
        builder = ClauseBuilder()
        i = 0
        while i < len(parts):
            j = rng.randint(i + 1, len(parts))
            if rng.random() < 0.5:
                builder.add_fragment(compile_fragment(parts[i:j]))
            else:
                for formula, label in parts[i:j]:
                    builder.add(formula, label)
            i = j
        assert builder.build() == expected, parts
        assert compile_fragment(parts) == expected, parts


QUANTIFIED_TERMS = (
    agent_var("x"), agent_var("z"), object_var("y"), object_var("x"),
    agent_const("a"), object_const("o"),
)


def random_quantified(rng: random.Random, depth: int) -> Formula:
    """Nested, shadowing and vacuous quantifiers over atoms with free variables."""
    if depth == 0 or rng.random() < 0.3:
        args = tuple(rng.choice(QUANTIFIED_TERMS) for _ in range(rng.randint(0, 3)))
        return AtomF(Atom(rng.choice("pq"), args))
    kind = rng.choice(("forall", "forall", "not", "implies", "and", "or"))
    if kind == "forall":
        var = rng.choice([t for t in QUANTIFIED_TERMS if t.is_var])
        return ForAll(var, random_quantified(rng, depth - 1))
    if kind == "not":
        return Not(random_quantified(rng, depth - 1))
    if kind == "implies":
        return Implies(random_quantified(rng, depth - 1), random_quantified(rng, depth - 1))
    parts = tuple(random_quantified(rng, depth - 1) for _ in range(rng.choice((0, 1, 2, 3))))
    return And(parts) if kind == "and" else Or(parts)


DOMAINS = (
    ((agent_const("a"),), (object_const("o"),)),
    ((agent_const("a"), agent_const("b")), (object_const("o"), object_const("k"))),
)


def test_random_quantified_formulas_ground_like_reference():
    # The reference grounder copies each quantifier body per constant with
    # `substitute`; the engine binds through an environment. The trees match.
    rng = random.Random(0xF0A11)
    for _ in range(400):
        formula = random_quantified(rng, rng.randint(1, 5))
        for agents, objects in DOMAINS:
            assert ground(formula, agents, objects) == (
                reference_logic.ground(formula, agents, objects)
            ), formula


# -- no state between calls ------------------------------------------------------------


def all_queries(scenario) -> list:
    out = []
    for plan in scenario.plans:
        out.append(QueryCompiler(scenario).generalization(plan))
        for other in scenario.plans:
            if other.agent != plan.agent:
                out.append(QueryCompiler(scenario).autonomy_pair(plan, other))
    return out


def reference_queries(scenario) -> list:
    out = []
    for plan in scenario.plans:
        out.append(reference_logic.generalization_query(plan, scenario))
        for other in scenario.plans:
            if other.agent != plan.agent:
                out.append(reference_logic.autonomy_pair_queries(plan, other, scenario))
    return out


def test_scenarios_sharing_an_agent_name_do_not_leak():
    # Both scenarios have an agent `a` with different beliefs.
    theft, bus = load("theft"), load("bus")
    assert "a" in theft.agent_names() and "a" in bus.agent_names()
    for scenario in (theft, bus, theft, bus):
        assert all_queries(scenario) == reference_queries(scenario)
    assert evaluate(bus) == evaluate(load("bus"))
    assert evaluate(bus).plan("pull").overall == "ethical"


def test_concurrent_evaluations_equal_sequential_runs():
    names = ("pedestrian", "bus")
    expected = {name: evaluate(load(name)) for name in names}
    results: dict[str, list] = {name: [] for name in names}
    errors: list[Exception] = []

    def work(name: str) -> None:
        scenario = load(name)
        try:
            for _ in range(20):
                results[name].append(evaluate(scenario))
        except Exception as exc:  # surfaced in the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-query
    try:
        threads = [threading.Thread(target=work, args=(name,)) for name in names]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for name in names:
        assert len(results[name]) == 20
        assert all(r == expected[name] for r in results[name])
