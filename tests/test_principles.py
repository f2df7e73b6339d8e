import dataclasses
import itertools
from fractions import Fraction

import pytest

from deon.dsl import parse_scenario
from deon.logic import Atom, Implies, agent_const, ground, walk
from deon.principles import (
    AUTONOMY,
    AutonomyClear,
    BudgetNote,
    Dominated,
    ETHICAL,
    FAIL,
    GENERALIZATION,
    INDETERMINATE,
    Note,
    PASS,
    PlanInterference,
    QueryCompiler,
    QueryConflict,
    ReasonsContradiction,
    UNETHICAL,
    UTILITY,
    UtilityComparison,
    Witness,
    can_rationally_believe_possible,
    check_utility,
    eligible_actions,
    evaluate,
    rationally_required_to_deny_possible,
)
from deon.scenario import ScenarioError, UtilityTable


def scen(text: str):
    result = parse_scenario(text)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.scenario


def all_protected(scenario) -> frozenset[str]:
    """The first round's protected plans: every plan id."""
    return frozenset(p.id for p in scenario.plans)


def all_eligible(scenario):
    """The first round's eligible candidates."""
    return eligible_actions(scenario, all_protected(scenario))


# -- generalization -----------------------------------------------------------


def test_theft_fails_generalization(golden):
    theft = golden["theft"]
    verdict = QueryCompiler(theft).check_generalization(theft.plan("steal"))
    assert verdict.status == FAIL
    assert isinstance(verdict.evidence, QueryConflict)
    labels = {
        verdict.evidence.clause_set.label_of(i)
        for i in verdict.evidence.conflict.clause_indices
    }
    assert any("universalization effect" in label for label in labels)


def test_theft_passes_without_the_effect(golden):
    theft = golden["theft"]
    relaxed = dataclasses.replace(theft, effects=())
    verdict = QueryCompiler(relaxed).check_generalization(relaxed.plan("steal"))
    assert verdict.status == PASS
    assert isinstance(verdict.evidence, Witness)
    model = verdict.evidence.model.atom_values(verdict.evidence.clause_set)
    # the witness keeps the agent's own reasons and action true
    a = agent_const("a")
    assert model[Atom("wants_item", (a,))]
    assert model[Atom("can_get_away", (a,))]
    assert model[Atom("steals", (a,))]


def test_ambulance_fails_generalization(golden):
    amb = golden["ambulance"]
    assert QueryCompiler(amb).check_generalization(amb.plan("siren")).status == FAIL


def test_ambulance_passes_without_the_effect(golden):
    amb = golden["ambulance"]
    relaxed = dataclasses.replace(amb, effects=())
    assert QueryCompiler(relaxed).check_generalization(relaxed.plan("siren")).status == PASS


def test_universalization_conjunct_covers_domain_product(golden):
    amb = golden["ambulance"]
    expansion = ground(amb.plan("siren").universal_adoption(), amb.agents, amb.objects)
    conditionals = [node for node in walk(expansion) if isinstance(node, Implies)]
    assert len(conditionals) == 4  # 2 agents x 2 ambulances


def test_generalization_query_is_deterministic(golden):
    theft = golden["theft"]
    first = QueryCompiler(theft).generalization(theft.plan("steal"))
    second = QueryCompiler(theft).generalization(theft.plan("steal"))
    assert first == second


# -- utility --------------------------------------------------------------------


def test_merge_fails_utility_with_dominator(golden):
    merge = golden["merge"]
    verdict = check_utility(merge.plan("merge"), merge, all_eligible(merge))
    assert verdict.status == FAIL
    assert isinstance(verdict.evidence, Dominated)
    assert verdict.evidence.dominator == Atom("wait_for_gap", (agent_const("a"),))
    assert verdict.evidence.dominator_utility == Fraction(2)
    assert verdict.evidence.utility == Fraction(1)


def test_merge_passes_with_swapped_utilities(golden):
    merge = golden["merge"]
    a = agent_const("a")
    swapped = UtilityTable({
        ("entering", Atom("merge_now", (a,))): Fraction(2),
        ("entering", Atom("wait_for_gap", (a,))): Fraction(1),
    })
    flipped = dataclasses.replace(merge, utilities=swapped)
    verdict = check_utility(flipped.plan("merge"), flipped, all_eligible(flipped))
    assert verdict.status == PASS
    assert isinstance(verdict.evidence, UtilityComparison)


def test_plan_without_candidate_context_passes_vacuously(golden):
    theft = golden["theft"]
    verdict = check_utility(theft.plan("steal"), theft, all_eligible(theft))
    assert verdict.status == PASS
    assert isinstance(verdict.evidence, Note)


def test_sole_candidate_passes():
    solo = scen(
        "scenario solo\n"
        "agents a\n"
        "predicates ready(agent), go(agent) action\n"
        "plan move agent a: reasons { ready(a) } action { go(a) }\n"
        "candidates lone given { ready(a) } { go(a) }\n"
        "utility lone { go(a) = 1; }\n"
    )
    verdict = check_utility(solo.plan("move"), solo, all_eligible(solo))
    assert verdict.status == PASS
    assert verdict.evidence.alternatives == ()


def test_ineligible_dominator_is_filtered(golden):
    merge = golden["merge"]
    plan = merge.plan("merge")
    wait = Atom("wait_for_gap", (agent_const("a"),))
    assert check_utility(plan, merge, eligible=frozenset()).status == PASS
    assert check_utility(plan, merge, eligible=frozenset({("entering", wait)})).status == FAIL


def test_missing_utility_entry_is_a_configuration_error(golden):
    merge = golden["merge"]
    entries = dict(merge.utilities.entries)
    entries.pop(("entering", Atom("wait_for_gap", (agent_const("a"),))))
    broken = dataclasses.replace(merge, utilities=UtilityTable(entries))
    with pytest.raises(ScenarioError):
        check_utility(broken.plan("merge"), broken, all_eligible(broken))


# -- autonomy -------------------------------------------------------------------


def test_bus_pull_passes_via_second_disjunct(golden):
    bus = golden["bus"]
    verdict = QueryCompiler(bus).check_autonomy_pair(bus.plan("pull"), bus.plan("cross"))
    assert verdict.status == PASS
    assert isinstance(verdict.evidence, ReasonsContradiction)
    assert verdict.evidence.other_plan == "cross"
    rendered = verdict.evidence.reasons.conflict.render(verdict.evidence.reasons.clause_set)
    assert any("cars_approaching" in line for line in rendered)


def test_pedestrian_no_brake_fails_against_crossing(golden):
    ped = golden["pedestrian"]
    verdict = QueryCompiler(ped).check_autonomy_pair(ped.plan("no_brake"), ped.plan("cross"))
    assert verdict.status == FAIL
    assert isinstance(verdict.evidence, PlanInterference)
    assert verdict.evidence.other_plan == "cross"


def test_pedestrian_brake_passes_via_first_disjunct(golden):
    ped = golden["pedestrian"]
    for other in ("cross", "ride"):
        verdict = QueryCompiler(ped).check_autonomy_pair(ped.plan("brake"), ped.plan(other))
        assert verdict.status == PASS
        assert isinstance(verdict.evidence, Witness)


def test_autonomy_pair_requires_distinct_agents(golden):
    ped = golden["pedestrian"]
    with pytest.raises(ScenarioError):
        QueryCompiler(ped).check_autonomy_pair(ped.plan("brake"), ped.plan("no_brake"))


def test_check_autonomy_aggregates(golden):
    ped = golden["pedestrian"]
    ok = QueryCompiler(ped).check_autonomy(ped.plan("brake"), all_protected(ped))
    assert ok.status == PASS
    assert isinstance(ok.evidence, AutonomyClear)
    assert [other for other, _ in ok.evidence.pairs] == ["cross", "ride"]

    bad = QueryCompiler(ped).check_autonomy(ped.plan("no_brake"), all_protected(ped))
    assert bad.status == FAIL
    assert bad.evidence.other_plan == "cross"  # first failing pair


def test_check_autonomy_skips_unprotected(golden):
    ped = golden["pedestrian"]
    verdict = QueryCompiler(ped).check_autonomy(ped.plan("no_brake"), frozenset({"ride"}))
    assert verdict.status == PASS


def test_check_autonomy_vacuous_with_empty_protected(golden):
    ped = golden["pedestrian"]
    verdict = QueryCompiler(ped).check_autonomy(ped.plan("no_brake"), frozenset())
    assert verdict.status == PASS
    assert isinstance(verdict.evidence, Note)


def test_autonomy_never_checks_same_agent(golden):
    merge = golden["merge"]  # single agent
    verdict = QueryCompiler(merge).check_autonomy(merge.plan("merge"), all_protected(merge))
    assert verdict.status == PASS
    assert isinstance(verdict.evidence, Note)


# -- evaluate: whole-scenario fixpoint --------------------------------------------


def test_evaluate_pedestrian(golden):
    verdicts = evaluate(golden["pedestrian"])
    assert verdicts.statuses() == {
        "brake": ETHICAL,
        "no_brake": UNETHICAL,
        "cross": ETHICAL,
        "ride": ETHICAL,
    }
    assert verdicts.rounds == 2
    assert verdicts.stable
    failed = verdicts.plan("no_brake")
    assert failed.check(AUTONOMY).status == FAIL


def test_evaluate_theft(golden):
    verdicts = evaluate(golden["theft"])
    assert verdicts.statuses() == {"steal": UNETHICAL}
    assert verdicts.plan("steal").check(GENERALIZATION).status == FAIL
    assert verdicts.stable


def test_evaluate_bus_all_clear_first_round(golden):
    verdicts = evaluate(golden["bus"])
    assert verdicts.statuses() == {"pull": ETHICAL, "cross": ETHICAL}
    assert verdicts.rounds == 1
    assert verdicts.stable


def test_evaluate_zero_plans():
    empty = scen("scenario empty\nagents a\n")
    verdicts = evaluate(empty)
    assert verdicts.plans == ()
    assert verdicts.rounds == 1
    assert verdicts.stable


CAKE = (
    "scenario cake\n"
    "agents a, b\n"
    "predicates holds_cake(agent), grab_all(agent) action, share_half(agent) action\n"
    "plan grab agent a: reasons { holds_cake(a) } action { grab_all(a) }\n"
    "plan share agent a: reasons { holds_cake(a) } action { share_half(a) }\n"
    "on_universalized grab { forall x. not holds_cake(x); }\n"
    "candidates cake given { holds_cake(a) } { grab_all(a), share_half(a) }\n"
    "utility cake { grab_all(a) = 5; share_half(a) = 1; }\n"
)


def test_eligibility_recursion_unblocks_dominated_plan():
    # The high-utility alternative is not generalizable; once it drops out of
    # the protected set the modest plan stops being dominated.
    cake = scen(CAKE)
    first_round = check_utility(cake.plan("share"), cake, all_eligible(cake))
    assert first_round.status == FAIL
    verdicts = evaluate(cake)
    assert verdicts.statuses() == {"grab": UNETHICAL, "share": ETHICAL}
    assert verdicts.plan("grab").check(GENERALIZATION).status == FAIL
    share_utility = verdicts.plan("share").check(UTILITY)
    assert share_utility.status == PASS
    assert share_utility.evidence.alternatives == (
        (Atom("grab_all", (agent_const("a"),)), Fraction(5), False),
    )
    assert verdicts.rounds == 3
    assert verdicts.stable


def test_eligible_actions_tracks_protected():
    cake = scen(CAKE)
    grab = Atom("grab_all", (agent_const("a"),))
    share = Atom("share_half", (agent_const("a"),))
    both = eligible_actions(cake, protected=frozenset({"grab", "share"}))
    assert both == frozenset({("cake", grab), ("cake", share)})
    none = eligible_actions(cake, protected=frozenset())
    assert none == frozenset()


STANDOFF = (
    "scenario standoff\n"
    "agents a, b\n"
    "predicates at_junction(agent), goes_first(agent) action\n"
    "physics { not (goes_first(a) and goes_first(b)); }\n"
    "plan x agent a: reasons { at_junction(a) } action { goes_first(a) }\n"
    "plan y agent b: reasons { at_junction(b) } action { goes_first(b) }\n"
)


def test_oscillating_plans_become_indeterminate():
    # Two plans that each interfere with the other flip together every
    # round: protection withdrawn -> both pass -> protection restored -> ...
    standoff = scen(STANDOFF)
    verdicts = evaluate(standoff)
    assert not verdicts.stable
    assert verdicts.rounds == 3  # len(plans) + 1
    assert verdicts.statuses() == {"x": INDETERMINATE, "y": INDETERMINATE}


FOG = (
    "scenario fog\n"
    "agents a, b\n"
    "predicates p1(), p2(), p3(), p4(), p5(), p6(), wants_spot(agent), takes_spot(agent) action\n"
    "plan x agent a: reasons { wants_spot(a) } action { takes_spot(a) }\n"
    "plan y agent b: reasons { wants_spot(b) } action { takes_spot(b) }\n"
    "on_universalized x { p1 or p2; p2 or p3; p3 or p4; p4 or p5; p5 or p6; }\n"
)


def test_budget_exhaustion_yields_indeterminate_and_stays_protected():
    fog = scen(FOG)
    verdicts = evaluate(fog, budget=3)
    x = verdicts.plan("x")
    assert x.check(GENERALIZATION).status == INDETERMINATE
    assert isinstance(x.check(GENERALIZATION).evidence, BudgetNote)
    assert x.overall == INDETERMINATE
    y = verdicts.plan("y")
    assert y.overall == ETHICAL
    # the indeterminate plan stayed protected: y was still checked against x
    assert [other for other, _ in y.check(AUTONOMY).evidence.pairs] == ["x"]
    assert verdicts.stable

    generous = evaluate(fog, budget=10_000)
    assert generous.statuses() == {"x": ETHICAL, "y": ETHICAL}


NOISE = (
    "scenario noise\n"
    "agents a, b\n"
    "predicates want(agent), noise(agent), go(agent) action\n"
    "physics { not (go(a) and go(b)); noise(a) or noise(b); }\n"
    "plan pa agent a: reasons { want(a) } action { go(a) }\n"
    "plan pb agent b: reasons { want(b) } action { go(b) }\n"
)


def test_budget_exhausted_on_the_reasons_disjunct_is_logged_as_undecided():
    # The actions query is refuted by propagation alone; the reasons query
    # needs more than two decisions, so the pair stops on its second query.
    verdicts = evaluate(scen(NOISE), budget=2)
    log = verdicts.queries
    assert verdicts.statuses() == {"pa": INDETERMINATE, "pb": INDETERMINATE}
    assert verdicts.rounds == 2 and verdicts.stable
    assert verdicts.plan("pa").check(AUTONOMY).evidence == BudgetNote(
        "decision budget exhausted checking pa against pb"
    )
    # Round 2 reuses round 1's verdicts, so it solves and logs nothing.
    per_round = [
        ("generalization:pa", True),
        ("autonomy:pa:pb:actions", False),
        ("autonomy:pa:pb:reasons", None),
        ("generalization:pb", True),
        ("autonomy:pb:pa:actions", False),
        ("autonomy:pb:pa:reasons", None),
    ]
    assert [(q.check, q.satisfiable) for q in log] == per_round


HAZE = (
    "scenario haze\n"
    "agents a, b\n"
    "predicates p1(), p2(), p3(), p4(), want(agent), go(agent) action\n"
    "physics { p1 or p2; p2 or p3; p3 or p4; }\n"
    "plan pa agent a: reasons { want(a) } action { go(a) }\n"
    "plan pb agent b: reasons { want(b) } action { go(b) }\n"
    "on_universalized pa { not go(a); }\n"
)


def test_budget_exhausted_on_the_actions_disjunct_asks_no_reasons_query():
    # pa's generalization query is refuted by propagation alone. Neither
    # action names an atom of the other plan's query, so each pair's actions
    # disjunct is the acting plan's action alone; that query needs more than
    # three decisions, so each pair stops on it and its reasons query is
    # never built.
    verdicts = evaluate(scen(HAZE), budget=3)
    log = verdicts.queries
    assert verdicts.statuses() == {"pa": UNETHICAL, "pb": INDETERMINATE}
    assert verdicts.rounds == 2 and verdicts.stable
    autonomy = verdicts.plan("pa").check(AUTONOMY)
    assert autonomy.status == INDETERMINATE
    assert autonomy.evidence == BudgetNote("decision budget exhausted checking pa against pb")
    assert [(q.check, q.satisfiable) for q in log] == [
        ("generalization:pa", False),
        ("autonomy:pa:actions", None),
        ("generalization:pb", None),
        ("autonomy:pb:actions", None),
        # round 2 reuses these verdicts; pa dropped out of protection, so pb
        # consults no pair
    ]


# -- cross-cutting properties ------------------------------------------------------


def test_duality_on_every_modal_query(golden):
    for name, scenario in golden.items():
        log = evaluate(scenario).queries
        assert log, name
        for query in log:
            assert query.satisfiable is not None
            believe = can_rationally_believe_possible(query.clause_set)
            deny = rationally_required_to_deny_possible(query.clause_set)
            assert believe == (not deny)
            assert believe == query.satisfiable


def test_generalization_is_independent_of_round_state(golden):
    # The fixpoint may shrink the protected set between rounds; the
    # generalization verdict never depends on it.
    for scenario in golden.values():
        verdicts = evaluate(scenario)
        for plan in scenario.plans:
            direct = QueryCompiler(scenario).check_generalization(plan)
            assert direct.status == verdicts.plan(plan.id).check(GENERALIZATION).status


def test_plan_declaration_order_does_not_change_statuses(golden):
    for name in ("pedestrian", "bus"):
        scenario = golden[name]
        baseline = evaluate(scenario).statuses()
        for perm in itertools.permutations(scenario.plans):
            shuffled = dataclasses.replace(scenario, plans=perm)
            assert evaluate(shuffled).statuses() == baseline, name


def test_evaluate_is_deterministic(golden):
    for scenario in golden.values():
        assert evaluate(scenario) == evaluate(scenario)


def test_ethical_overall_requires_every_check_to_pass(golden):
    # never report a plan in the clear while any recorded check failed;
    # on stable results a recorded failure forces unethical (oscillating
    # plans are downgraded to indeterminate instead)
    extras = [scen(CAKE), scen(STANDOFF), scen(FOG)]
    for scenario in list(golden.values()) + extras:
        verdicts = evaluate(scenario)
        for pv in verdicts.plans:
            if pv.overall == ETHICAL:
                assert all(c.status == PASS for c in pv.checks)
            if any(c.status == FAIL for c in pv.checks) and verdicts.stable:
                assert pv.overall == UNETHICAL


def test_every_golden_query_fail_uses_the_principles_own_part(golden):
    # A fail that the agent's theory and the plan's own parts refute alone
    # would derive an "ought" from an "is". The conflict of a generalization
    # fail must use universal adoption or an effect, and that of an autonomy
    # fail the other plan's action.
    fails = []
    for name, scenario in sorted(golden.items()):
        for pv in evaluate(scenario).plans:
            for check in pv.checks:
                evidence = check.evidence
                if check.status != FAIL or isinstance(evidence, Dominated):
                    continue
                if isinstance(evidence, QueryConflict):
                    cs, conflict = evidence.clause_set, evidence.conflict
                    needed = {f"universal adoption of plan {pv.plan_id}",
                              f"universalization effect of plan {pv.plan_id}"}
                else:
                    cs, conflict = evidence.actions.clause_set, evidence.actions.conflict
                    needed = {f"action of plan {evidence.other_plan}"}
                labels = {cs.label_of(i) for i in conflict.clause_indices}
                assert labels & needed, (name, pv.plan_id, check.principle, labels)
                fails.append((name, pv.plan_id, check.principle))
    assert fails == [
        ("ambulance", "siren", GENERALIZATION),
        ("pedestrian", "no_brake", AUTONOMY),
        ("theft", "steal", GENERALIZATION),
    ]
