"""Queries built from compiled theory fragments against the original builder.

`reference_logic` builds every query from scratch: it grounds and converts
the whole theory each time. The engine compiles each agent's theory once
and solves each query against it in place. The query-numbered clause sets
the engine derives must equal the reference's (atoms in the same order,
aux count, clauses and labels) on every plan and every ordered pair
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
from collections import Counter

import pytest
import reference_logic
from hypothesis import given, settings
from test_principles import STANDOFF
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
    GroundingError,
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
    PlanVerdict,
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
        action = ground(plan.action_formula(), scenario.agents, scenario.objects)
        cs = compile_fragment([(action, "")])
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
    assert solved and len(log) == len(solved)
    assert all(q.query is s for q, s in zip(log, solved))
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


def test_no_theory_formula_is_grounded_on_its_own(monkeypatch):
    # An agent's theory is grounded inside `compile_fragment`'s one pass;
    # `principles.ground` sees plan parts only.
    grounded: list = []

    def recording_ground(formula, agents, objects=()):
        grounded.append(formula)
        return ground(formula, agents, objects)

    monkeypatch.setattr(principles, "ground", recording_ground)
    theory = []
    for name in scenarios.NAMES:
        scenario = load(name)
        constraints = scenario.constraints
        theory += [*constraints.physical, *itertools.chain(*constraints.beliefs.values())]
        evaluate(scenario)
    assert theory and grounded
    assert not [f for f in grounded if any(f is t for t in theory)]


def theory_parts(scenario, agent) -> list:
    """`agent`'s theory as labeled parts: the physics, then its beliefs."""
    constraints = scenario.constraints
    label = f"rational constraint of agent {agent.name}"
    parts = [(f, "physical constraint") for f in constraints.physical]
    return parts + [(f, label) for f in constraints.beliefs.get(agent, ())]


def test_agents_without_beliefs_share_one_physics_fragment(monkeypatch):
    compiled: list = []

    def recording_compile(parts, agents=(), objects=()):
        compiled.append(parts)
        return compile_fragment(parts, agents, objects)

    monkeypatch.setattr(principles, "compile_fragment", recording_compile)
    bus = load("bus")
    assert bus.constraints.physical and not any(bus.constraints.beliefs.values())
    evaluate(bus)
    assert len(compiled) == 1
    compiler = QueryCompiler(bus)
    theory = compiler._theory(bus.agents[0])
    assert all(compiler._theory(agent) is theory for agent in bus.agents)
    assert len(compiled) == 2
    assert theory == reference_fragment(theory_parts(bus, bus.agents[0]), bus.agents, bus.objects)


def test_a_believing_agent_compiles_its_physics_then_its_beliefs_in_one_pass():
    pedestrian = load("pedestrian")
    agents, objects = pedestrian.agents, pedestrian.objects
    believers = [a for a in agents if pedestrian.constraints.beliefs.get(a)]
    assert len(believers) == 1 and pedestrian.constraints.physical
    compiler = QueryCompiler(pedestrian)
    for agent in agents:
        parts = theory_parts(pedestrian, agent)
        theory = compiler._theory(agent)
        assert theory == compile_fragment(parts, agents, objects), agent
        assert theory == reference_fragment(parts, agents, objects), agent
    physics = [compiler._theory(a) for a in agents if a not in believers]
    assert len(physics) == 2 and physics[0] is physics[1]
    assert compiler._theory(believers[0]) != physics[0]


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


def test_fixpoint_12_decides_its_queries_in_a_pinned_order():
    # As recorded from rounds that check every plan in full: p_i's pair with
    # p_i+1 clashes, every other pair shares p_i's action query, and p0 asks
    # for that query only once p1 has left protection.
    expected = ["generalization:p0", "autonomy:p0:p1:actions", "autonomy:p0:p1:reasons"]
    for i in range(1, 11):
        expected += [
            f"generalization:p{i}", f"autonomy:p{i}:actions",
            f"autonomy:p{i}:p{i + 1}:actions", f"autonomy:p{i}:p{i + 1}:reasons",
        ]
    expected += ["generalization:p11", "autonomy:p11:actions", "autonomy:p0:actions"]
    assert [q.check for q in evaluate(load("fixpoint_12")).queries] == expected


@pytest.mark.parametrize(
    "source", [SOURCES["fixpoint_12"], STANDOFF], ids=["fixpoint_12", "standoff"]
)
def test_evaluate_builds_one_plan_verdict_per_plan(source, monkeypatch):
    # The rounds work on statuses; only the reported verdicts are built,
    # oscillating ones (standoff) included.
    built = []
    init = PlanVerdict.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["plan_id"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlanVerdict, "__init__", counting_init)
    parsed = parse_scenario(source)
    assert parsed.ok, [str(d) for d in parsed.diagnostics]
    verdicts = evaluate(parsed.scenario)
    assert built == [p.id for p in parsed.scenario.plans] == [pv.plan_id for pv in verdicts.plans]
    assert verdicts.stable is (source != STANDOFF)


@pytest.mark.parametrize("name", ["fixpoint_12", "chain_rule", *scenarios.NAMES])
def test_evaluate_asks_each_autonomy_pair_once(name, monkeypatch):
    # The rounds keep each pair's verdict; the final build reads them back
    # instead of asking the compiler again.
    asked = []
    pair = QueryCompiler.check_autonomy_pair

    def counting_pair(self, plan, other):
        asked.append((plan.id, other.id))
        return pair(self, plan, other)

    monkeypatch.setattr(QueryCompiler, "check_autonomy_pair", counting_pair)
    evaluate(load(name))
    assert len(asked) == len(set(asked))


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
        assert compile_fragment(parts) == expected, parts


QUANTIFIED_TERMS = (
    agent_var("x"), agent_var("z"), object_var("y"), object_var("x"),
    agent_const("a"), object_const("o"),
)


def random_quantified(rng: random.Random, depth: int) -> Formula:
    """Nested, shadowing and vacuous quantifiers over atoms with free
    variables; the engine takes a formula closed (`reference_logic.closed`)."""
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
        formula = reference_logic.closed(random_quantified(rng, rng.randint(1, 5)))
        for agents, objects in DOMAINS:
            assert ground(formula, agents, objects) == (
                reference_logic.ground(formula, agents, objects)
            ), formula


def reference_fragment(parts, agents, objects):
    """The reference builder's clause set of the parts, each grounded first."""
    builder = reference_logic.ClauseBuilder()
    for formula, label in parts:
        builder.add(reference_logic.ground(formula, agents, objects), label)
    return builder.build()


def test_random_quantified_formulas_compile_like_reference():
    # `compile_fragment` grounds and encodes in one pass; the clause set is
    # the reference builder's over the reference grounder's trees. Over an
    # empty object domain, an object quantifier (explicit, or closing a free
    # variable) raises the same GroundingError on both paths.
    rng = random.Random(0xF05ED)
    outcomes: Counter = Counter()
    for _ in range(300):
        parts = [
            (reference_logic.closed(random_quantified(rng, rng.randint(1, 4))),
             rng.choice(("", "physics", "belief")))
            for _ in range(rng.randint(1, 4))
        ]
        for agents, objects in (*DOMAINS, (DOMAINS[1][0], ())):
            try:
                expected = reference_fragment(parts, agents, objects)
            except GroundingError as error:
                with pytest.raises(GroundingError) as raised:
                    compile_fragment(parts, agents, objects)
                assert str(raised.value) == str(error), parts
                outcomes[objects, "raises"] += 1
                continue
            outcomes[objects, "compiles"] += 1
            assert compile_fragment(parts, agents, objects) == expected, parts
    # Every domain compiles some lists, and the empty object domain rejects some.
    assert min(outcomes.values()) >= 20 and len(outcomes) == 4, outcomes


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
    assert agent_const("a") in theft.agents and agent_const("a") in bus.agents
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
