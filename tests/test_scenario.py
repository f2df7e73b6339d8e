import dataclasses
from fractions import Fraction

import pytest

from deon.logic import (
    And,
    Atom,
    AtomF,
    ForAll,
    Implies,
    Not,
    SignedAtom,
    TRUE,
    agent_const,
    agent_var,
    ground,
    object_const,
    object_var,
    universalization_trigger,
)
from deon.dsl import parse_scenario
from deon.scenario import (
    ScenarioError,
    UtilityTable,
    belief_theory,
    effects_for,
    plan_context,
    validate,
)


def rules(diagnostics):
    return {d.rule for d in diagnostics}


# -- validation of the shipped scenarios -----------------------------------------


def test_golden_scenarios_validate_clean(golden):
    for name, scenario in golden.items():
        assert validate(scenario) == [], name


def test_unknown_predicate_is_diagnosed(golden):
    theft = golden["theft"]
    plan = theft.plans[0]
    bad = dataclasses.replace(
        plan, reasons=plan.reasons + (SignedAtom(Atom("C9", (agent_var("a"),))),)
    )
    mutated = dataclasses.replace(theft, plans=(bad,))
    assert "unknown-predicate" in rules(validate(mutated))


def test_candidate_set_must_contain_plans_own_action(golden):
    merge = golden["merge"]
    cs = merge.candidates[0]
    trimmed = dataclasses.replace(cs, actions=cs.actions[1:])  # drop merge_now
    mutated = dataclasses.replace(merge, candidates=(trimmed,))
    assert "candidate-missing-action" in rules(validate(mutated))


@pytest.mark.parametrize(
    "mutate, expected_rule",
    [
        (lambda s: dataclasses.replace(s, agents=()), "no-agents"),
        (lambda s: dataclasses.replace(s, agents=s.agents + (agent_const("a"),)), "duplicate"),
        # `ground` quantifies over these terms as they are
        (lambda s: dataclasses.replace(s, agents=(object_const("a"),)), "kind-mismatch"),
        (lambda s: dataclasses.replace(s, agents=(agent_var("a"),)), "kind-mismatch"),
        (lambda s: dataclasses.replace(s, plans=s.plans * 2), "duplicate"),
        (
            lambda s: dataclasses.replace(
                s, plans=(dataclasses.replace(s.plans[0], reasons=()),)
            ),
            "empty-reasons",
        ),
        (
            lambda s: dataclasses.replace(
                s, plans=(dataclasses.replace(s.plans[0], agent=agent_const("zz")),)
            ),
            "unknown-agent",
        ),
        (
            lambda s: dataclasses.replace(
                s,
                plans=(
                    dataclasses.replace(
                        s.plans[0], action=SignedAtom(Atom("wants_item", (agent_var("a"),)))
                    ),
                ),
            ),
            "not-an-action",
        ),
        (
            lambda s: dataclasses.replace(
                s,
                plans=(
                    dataclasses.replace(
                        s.plans[0], object_vars=(object_var("y"),)
                    ),
                ),
            ),
            "no-object-constants",
        ),
    ],
)
def test_single_mutations_yield_diagnostics(golden, mutate, expected_rule):
    mutated = mutate(golden["theft"])
    assert expected_rule in rules(validate(mutated))


def test_an_unbound_plan_variable_is_reported_once(golden):
    theft = golden["theft"]
    plan = theft.plans[0]
    bad = dataclasses.replace(
        plan, reasons=plan.reasons + (SignedAtom(Atom("wants_item", (agent_var("zz"),))),)
    )
    found = validate(dataclasses.replace(theft, plans=(bad,)))
    assert [d.message for d in found if d.rule == "unbound-variable"] == [
        "variable zz is not bound here"
    ]


def _theft_reason(atom, objects=()):
    """Mutate the theft golden: one more reason for its plan, and more objects."""
    def mutate(s):
        plan = dataclasses.replace(s.plans[0], reasons=s.plans[0].reasons + (SignedAtom(atom),))
        return dataclasses.replace(s, objects=s.objects + objects, plans=(plan,))
    return mutate


RULE_HEADER = (
    "scenario t\nagents a\nobjects o\npredicates wants_item(agent), steals(agent) action\n"
)


def _rule_plan(reason):
    return RULE_HEADER + f"plan p agent a: reasons {{ {reason} }} action {{ steals(a) }}\n"


# Each rule shared by the parser and `validate`: source text that breaks it,
# a mutation of the theft golden that breaks it, and the one message both give.
SHARED_RULE_CASES = {
    "duplicate_agent": (
        "scenario t\nagents a, a\n",
        lambda s: dataclasses.replace(s, agents=s.agents + (agent_const("a"),)),
        "agent a declared more than once",
    ),
    "name_clash": (
        "scenario t\nagents a\nobjects a\n",
        lambda s: dataclasses.replace(s, objects=("a",)),
        "a is already an agent name",
    ),
    "unknown_predicate": (
        _rule_plan("C9(a)"),
        _theft_reason(Atom("C9", (agent_var("a"),))),
        "unknown predicate C9",
    ),
    "arity": (
        _rule_plan("wants_item(a, a)"),
        _theft_reason(Atom("wants_item", (agent_var("a"), agent_var("a")))),
        "predicate wants_item takes 1 arguments, got 2",
    ),
    "argument_sort": (
        _rule_plan("wants_item(o)"),
        _theft_reason(Atom("wants_item", (object_const("o"),)), objects=("o",)),
        "argument o of wants_item should be an agent",
    ),
}


@pytest.mark.parametrize("name", SHARED_RULE_CASES)
def test_parser_and_validate_word_a_shared_rule_alike(golden, name):
    text, mutate, message = SHARED_RULE_CASES[name]
    assert [d.message for d in parse_scenario(text).diagnostics] == [message]
    assert [d.message for d in validate(mutate(golden["theft"]))] == [message]


def test_missing_utility_entry_diagnosed(golden):
    merge = golden["merge"]
    entries = dict(merge.utilities.entries)
    entries.pop(("entering", Atom("wait_for_gap", (agent_const("a"),))))
    mutated = dataclasses.replace(merge, utilities=UtilityTable(entries))
    assert "missing-utility" in rules(validate(mutated))


def test_utility_for_unknown_context_diagnosed(golden):
    merge = golden["merge"]
    entries = dict(merge.utilities.entries)
    entries[("nowhere", Atom("merge_now", (agent_const("a"),)))] = Fraction(1)
    mutated = dataclasses.replace(merge, utilities=UtilityTable(entries))
    assert "unknown-context" in rules(validate(mutated))


def test_effect_for_unknown_plan_diagnosed(golden):
    theft = golden["theft"]
    bad = dataclasses.replace(theft.effects[0], plan_id="ghost")
    mutated = dataclasses.replace(theft, effects=(bad,))
    assert "unknown-plan" in rules(validate(mutated))


def test_validate_is_deterministic(golden):
    for scenario in golden.values():
        assert validate(scenario) == validate(scenario)


# -- belief_theory ------------------------------------------------------------------


def test_belief_theory_defaults_to_physics(golden):
    bus = golden["bus"]
    assert belief_theory(bus, agent_const("b")) == list(bus.constraints.physical)


def test_belief_theory_driver_gets_braking_constraint(golden):
    ped = golden["pedestrian"]
    theory = belief_theory(ped, agent_const("a"))
    assert theory[: len(ped.constraints.physical)] == list(ped.constraints.physical)
    assert len(theory) == len(ped.constraints.physical) + 1
    extra = theory[-1]
    assert isinstance(extra, Implies)  # not braking forecloses the pedestrian's plan


def test_belief_theory_includes_physics_for_every_agent(golden):
    for scenario in golden.values():
        for agent in scenario.agents:
            theory = belief_theory(scenario, agent)
            for constraint in scenario.constraints.physical:
                assert constraint in theory


def test_belief_theory_unknown_agent(golden):
    with pytest.raises(ScenarioError):
        belief_theory(golden["theft"], agent_const("z"))


# -- effects_for ---------------------------------------------------------------------


def test_effects_for_theft_guards_consequence(golden):
    theft = golden["theft"]
    formula = effects_for(theft, "steal")
    trigger = universalization_trigger("steal")
    assert isinstance(formula, Implies)
    assert formula.antecedent == AtomF(trigger)
    grounded = ground(formula, theft.agents, tuple(map(object_const, theft.objects)))
    a, b = agent_const("a"), agent_const("b")
    assert grounded == Implies(
        AtomF(trigger),
        And((Not(AtomF(Atom("can_get_away", (a,)))), Not(AtomF(Atom("can_get_away", (b,)))))),
    )


def test_effects_for_plan_without_effects_is_true(golden):
    assert effects_for(golden["merge"], "merge") == TRUE


def test_effects_for_ambulance_covers_domain_product(golden):
    amb = golden["ambulance"]
    grounded = ground(
        effects_for(amb, "siren"), amb.agents, tuple(map(object_const, amb.objects))
    )
    # trigger -> conjunction over 2 agents x 2 ambulances
    negations = [
        node
        for node in _walk(grounded)
        if isinstance(node, Not)
    ]
    assert len(negations) == 4


def _walk(f):
    from deon.logic import walk

    return list(walk(f))


def test_effects_for_unknown_plan(golden):
    with pytest.raises(ScenarioError):
        effects_for(golden["theft"], "ghost")


# -- plan context -----------------------------------------------------------------


def test_plan_context_matches_merge(golden):
    merge = golden["merge"]
    ctx = plan_context(merge, merge.plans[0])
    assert ctx is not None and ctx.context == "entering"


def test_plan_context_absent_for_theft(golden):
    theft = golden["theft"]
    assert plan_context(theft, theft.plans[0]) is None


def test_plan_context_skips_object_var_plans(golden):
    amb = golden["ambulance"]
    assert plan_context(amb, amb.plans[0]) is None


# -- plan helpers -----------------------------------------------------------------


def test_plan_instantiation_binds_placeholder(golden):
    steal = golden["theft"].plans[0]
    assert all(sa.atom.is_ground() for sa in steal.instantiated_reasons())
    assert steal.instantiated_action().atom == Atom("steals", (agent_const("a"),))


def test_plan_commitment_formula_closes_object_vars(golden):
    siren = golden["ambulance"].plans[0]
    commitment = siren.commitment_formula()
    assert isinstance(commitment, ForAll)
    from deon.logic import _ordered_free_vars

    assert _ordered_free_vars(commitment) == []
