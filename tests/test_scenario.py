import dataclasses
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
import reference_logic
from test_query_differential import fixpoint_chain

from deon import scenarios
from deon.logic import (
    AGENT,
    OBJECT,
    And,
    Atom,
    AtomF,
    ForAll,
    Implies,
    LogicError,
    Not,
    SignedAtom,
    TRUE,
    Term,
    agent_const,
    agent_var,
    ground,
    object_const,
    object_var,
    universalization_trigger,
)
from deon.dsl import parse_scenario
from deon.principles import QueryCompiler, evaluate
from deon.scenario import (
    Diagnostic,
    ScenarioError,
    UtilityTable,
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
        (lambda s: dataclasses.replace(s, objects=(agent_const("o"),)), "kind-mismatch"),
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
        lambda s: dataclasses.replace(s, objects=(object_const("a"),)),
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
        _theft_reason(Atom("wants_item", (object_const("o"),)), objects=(object_const("o"),)),
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


# -- agents: plan agents, belief keys and theories ---------------------------------

AGENT_PROBE = (
    "scenario t\nagents a, b\nobjects o\npredicates rain(), go(object) action\n"
    "plan p agent a: reasons { rain } action { go(o) }\n"
)


def test_a_plan_whose_agent_is_an_object_is_unknown_agent():
    scenario = parse_scenario(AGENT_PROBE).scenario
    plan = dataclasses.replace(scenario.plans[0], agent=scenario.objects[0])
    mutated = dataclasses.replace(scenario, plans=(plan,))
    assert [(d.element, d.rule) for d in validate(mutated)] == [("plan p", "unknown-agent")]
    with pytest.raises(ScenarioError, match="unknown agent 'o'"):
        evaluate(mutated)


@pytest.mark.parametrize("agent", ["a", None], ids=["string", "none"])
def test_a_plan_whose_agent_is_no_term_is_unknown_agent(golden, agent):
    # Reported, not raised: the plan's other rules read its agent's name.
    theft = golden["theft"]
    plan = dataclasses.replace(theft.plans[0], agent=agent)
    found = validate(dataclasses.replace(theft, plans=(plan,)))
    assert [(d.element, d.rule) for d in found] == [(f"plan {plan.id}", "unknown-agent")]


@pytest.mark.parametrize(
    "key", [agent_const("zz"), object_const("o"), "a"], ids=["undeclared", "object", "string"]
)
def test_a_belief_key_that_is_no_agent_constant_is_unknown_agent(key):
    scenario = parse_scenario(AGENT_PROBE).scenario
    constraints = dataclasses.replace(
        scenario.constraints, beliefs={key: (AtomF(Atom("rain", ())),)}
    )
    found = validate(dataclasses.replace(scenario, constraints=constraints))
    assert [(d.element, d.rule) for d in found] == [(f"belief {key}", "unknown-agent")]


# -- validate stays total over wrongly typed values ---------------------------------


def places(value, path=()):
    """Every (path, value) in a scenario's tree: the fields of its records,
    the items of its tuples, and the keys and values of its mappings."""
    yield path, value
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from places(getattr(value, f.name), path + (f.name,))
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from places(item, path + (i,))
    elif isinstance(value, Mapping):
        for i, (key, item) in enumerate(value.items()):
            yield from places(key, path + (("key", i),))
            yield from places(item, path + (("value", i),))


def replaced(value, path, new):
    """`value` with `new` at `path`, every record on the way rebuilt."""
    if not path:
        return new
    step, rest = path[0], path[1:]
    if isinstance(step, str):
        return dataclasses.replace(value, **{step: replaced(getattr(value, step), rest, new)})
    if isinstance(step, int):
        return value[:step] + (replaced(value[step], rest, new),) + value[step + 1:]
    part, i = step
    items = list(value.items())
    key, item = items[i]
    if part == "key":
        items[i] = (replaced(key, rest, new), item)
    else:
        items[i] = (key, replaced(item, rest, new))
    return dict(items)


def wrongly_typed(value) -> list:
    """A str for a Term, a term of the wrong sort, and None, each where it
    is of another type than `value`."""
    if isinstance(value, Term):
        other = OBJECT if value.sort == AGENT else AGENT
        found = [value.name, Term(other, value.name, value.is_var)]
    else:
        found = ([] if isinstance(value, str) else ["x"]) + [agent_const("a")]
    return found + ([] if value is None else [None])


PARSED = {name: parse_scenario(scenarios.source(name)).scenario for name in scenarios.NAMES}


@st.composite
def mistyped_scenarios(draw):
    scenario = PARSED[draw(st.sampled_from(sorted(PARSED)))]
    for _ in range(draw(st.integers(1, 3))):
        path, value = draw(st.sampled_from(list(places(scenario))[1:]))
        new = draw(st.sampled_from(wrongly_typed(value)))
        try:
            scenario = replaced(scenario, path, new)
        except (LogicError, AttributeError):  # `Term` and `ForAll` refuse some values
            pass
    return scenario


@settings(max_examples=400, deadline=None)
@given(mistyped_scenarios())
def test_validate_never_raises_on_wrongly_typed_values(scenario):
    found = validate(scenario)
    assert all(isinstance(d, Diagnostic) for d in found)
    assert [(d.element, d.rule, d.message) for d in validate(scenario)] == [
        (d.element, d.rule, d.message) for d in found
    ]


def test_a_quantified_variable_named_by_a_term_is_refused_with_a_message():
    # A variable whose name is itself a term: `validate` reports the name,
    # and `ForAll` refuses the term once it is no longer a variable, with a
    # message that prints that name rather than failing to.
    path = ("effects", 0, "consequence", "var")
    scenario = replaced(PARSED["theft"], path + ("name",), agent_const("a"))
    assert [(d.element, d.rule, d.message) for d in validate(scenario)] == [
        ("scenario.effects[0].consequence.var.name", "wrong-type", "expected str, got Term")
    ]
    with pytest.raises(LogicError, match=r"^forall binds a variable, got constant a$"):
        replaced(scenario, path + ("is_var",), None)


@pytest.mark.parametrize("name", sorted(PARSED))
def test_a_mutant_that_validates_clean_evaluates(name):
    # `evaluate` runs whatever `validate` passes: each wrongly typed value,
    # put alone in each place of a golden, gets a finding or evaluates.
    scenario = PARSED[name]
    for path, value in list(places(scenario))[1:]:
        for new in wrongly_typed(value):
            try:
                mutant = replaced(scenario, path, new)
            except (LogicError, AttributeError):  # `Term` and `ForAll` refuse some values
                continue
            if not validate(mutant):
                evaluate(mutant, budget=1000)


# Each value that made a rule of `validate` raise, one per place it raised,
# or that it passed to a raise in `evaluate`: golden, path, value, and the
# one finding it gives now.
WRONGLY_TYPED = {
    "theft-plans.0.reasons.0.atom-str": (
        "theft", ("plans", 0, "reasons", 0, "atom"), "x",
        "scenario.plans[0].reasons[0].atom", "expected Atom, got str",
    ),
    "theft-plans.0.reasons.0.atom.args-str": (
        "theft", ("plans", 0, "reasons", 0, "atom", "args"), "x",
        "scenario.plans[0].reasons[0].atom.args", "expected tuple, got str",
    ),
    "theft-plans.0.reasons.0.atom.args-term": (
        "theft", ("plans", 0, "reasons", 0, "atom", "args"), agent_const("a"),
        "scenario.plans[0].reasons[0].atom.args", "expected tuple, got Term",
    ),
    "theft-plans.0.reasons.0-str": (
        "theft", ("plans", 0, "reasons", 0), "x",
        "scenario.plans[0].reasons[0]", "expected SignedAtom, got str",
    ),
    "theft-predicates-str": (
        "theft", ("predicates",), "x",
        "scenario.predicates", "expected tuple, got str",
    ),
    "theft-predicates.0.arg_sorts-term": (
        "theft", ("predicates", 0, "arg_sorts"), agent_const("a"),
        "scenario.predicates[0].arg_sorts", "expected tuple, got Term",
    ),
    "theft-agents-str": (
        "theft", ("agents",), "x",
        "scenario.agents", "expected tuple, got str",
    ),
    "theft-plans-str": (
        "theft", ("plans",), "x",
        "scenario.plans", "expected tuple, got str",
    ),
    "theft-utilities-str": (
        "theft", ("utilities",), "x",
        "scenario.utilities", "expected UtilityTable, got str",
    ),
    "theft-plans.0.reasons-str": (
        "theft", ("plans", 0, "reasons"), "x",
        "scenario.plans[0].reasons", "expected tuple, got str",
    ),
    "theft-plans.0.object_vars-str": (
        "theft", ("plans", 0, "object_vars"), "x",
        "scenario.plans[0].object_vars", "expected tuple, got str",
    ),
    "theft-agents-term": (
        "theft", ("agents",), agent_const("a"),
        "scenario.agents", "expected tuple, got Term",
    ),
    "theft-constraints-str": (
        "theft", ("constraints",), "x",
        "scenario.constraints", "expected ConstraintBase, got str",
    ),
    "theft-constraints.beliefs-str": (
        "theft", ("constraints", "beliefs"), "x",
        "scenario.constraints.beliefs", "expected Mapping, got str",
    ),
    "ambulance-plans.0.reasons.0.atom.args-str": (
        "ambulance", ("plans", 0, "reasons", 0, "atom", "args"), "x",
        "scenario.plans[0].reasons[0].atom.args", "expected tuple, got str",
    ),
    "theft-effects-str": (
        "theft", ("effects",), "x",
        "scenario.effects", "expected tuple, got str",
    ),
    "theft-predicates-term": (
        "theft", ("predicates",), agent_const("a"),
        "scenario.predicates", "expected tuple, got Term",
    ),
    "theft-plans-term": (
        "theft", ("plans",), agent_const("a"),
        "scenario.plans", "expected tuple, got Term",
    ),
    "theft-constraints.physical-term": (
        "theft", ("constraints", "physical"), agent_const("a"),
        "scenario.constraints.physical", "expected tuple, got Term",
    ),
    "theft-effects-term": (
        "theft", ("effects",), agent_const("a"),
        "scenario.effects", "expected tuple, got Term",
    ),
    "theft-candidates-term": (
        "theft", ("candidates",), agent_const("a"),
        "scenario.candidates", "expected tuple, got Term",
    ),
    "theft-plans.0.agent.name-term": (
        "theft", ("plans", 0, "agent", "name"), agent_const("a"),
        "scenario.plans[0].agent.name", "expected str, got Term",
    ),
    "theft-candidates-str": (
        "theft", ("candidates",), "x",
        "scenario.candidates", "expected tuple, got str",
    ),
    "merge-utilities.entries.key0.1.predicate-term": (
        "merge", ("utilities", "entries", ("key", 0), 1, "predicate"), agent_const("a"),
        "scenario.utilities.entries.keys[0][1].predicate", "expected str, got Term",
    ),
    "merge-candidates.0.condition-str": (
        "merge", ("candidates", 0, "condition"), "x",
        "scenario.candidates[0].condition", "expected tuple, got str",
    ),
    "bus-constraints.physical_spans-term": (
        "bus", ("constraints", "physical_spans"), agent_const("a"),
        "scenario.constraints.physical_spans", "expected tuple, got Term",
    ),
    "merge-utilities.entries.key0-term": (
        "merge", ("utilities", "entries", ("key", 0)), agent_const("a"),
        "scenario.utilities.entries.keys[0]", "expected tuple, got Term",
    ),
    "merge-utilities.entries.key0.1.args.0.name-term": (
        "merge", ("utilities", "entries", ("key", 0), 1, "args", 0, "name"), agent_const("a"),
        "scenario.utilities.entries.keys[0][1].args[0].name", "expected str, got Term",
    ),
    "bus-constraints.physical.0.body.parts-term": (
        "bus", ("constraints", "physical", 0, "body", "parts"), agent_const("a"),
        "scenario.constraints.physical[0].body.parts", "expected tuple, got Term",
    ),
    "merge-utilities.spans-str": (
        "merge", ("utilities", "spans"), "x",
        "scenario.utilities.spans", "expected Mapping, got str",
    ),
    "pedestrian-constraints.belief_spans-str": (
        "pedestrian", ("constraints", "belief_spans"), "x",
        "scenario.constraints.belief_spans", "expected Mapping, got str",
    ),
    "merge-utilities.entries.key0-str": (
        "merge", ("utilities", "entries", ("key", 0)), "x",
        "scenario.utilities.entries.keys[0]", "expected tuple, got str",
    ),
    "merge-candidates.0.condition-term": (
        "merge", ("candidates", 0, "condition"), agent_const("a"),
        "scenario.candidates[0].condition", "expected tuple, got Term",
    ),
    "merge-candidates.0.actions-term": (
        "merge", ("candidates", 0, "actions"), agent_const("a"),
        "scenario.candidates[0].actions", "expected tuple, got Term",
    ),
    "pedestrian-constraints.beliefs.value0-term": (
        "pedestrian", ("constraints", "beliefs", ("value", 0)), agent_const("a"),
        "scenario.constraints.beliefs.values[0]", "expected tuple, got Term",
    ),
    "pedestrian-constraints.beliefs.key0.name-term": (
        "pedestrian", ("constraints", "beliefs", ("key", 0), "name"), agent_const("a"),
        "scenario.constraints.beliefs.keys[0].name", "expected str, got Term",
    ),
    "bus-constraints.physical.0-str": (
        "bus", ("constraints", "physical", 0), "x",
        "scenario.constraints.physical[0]", "expected Formula, got str",
    ),
    "pedestrian-constraints.beliefs.value0.0-none": (
        "pedestrian", ("constraints", "beliefs", ("value", 0), 0), None,
        "scenario.constraints.beliefs.values[0][0]", "expected Formula, got NoneType",
    ),
    "theft-effects.0.consequence-term": (
        "theft", ("effects", 0, "consequence"), agent_const("a"),
        "scenario.effects[0].consequence", "expected Formula, got Term",
    ),
    "bus-plans.0.id-term": (
        "bus", ("plans", 0, "id"), agent_const("a"),
        "scenario.plans[0].id", "expected str, got Term",
    ),
    "pedestrian-plans.2.id-none": (
        "pedestrian", ("plans", 2, "id"), None,
        "scenario.plans[2].id", "expected str, got NoneType",
    ),
    "merge-utilities.entries.value0-str": (
        "merge", ("utilities", "entries", ("value", 0)), "x",
        "scenario.utilities.entries.values[0]", "expected Fraction, got str",
    ),
}


@pytest.mark.parametrize("case", WRONGLY_TYPED)
def test_a_wrongly_typed_value_is_a_wrong_type_finding(case):
    name, path, new, element, message = WRONGLY_TYPED[case]
    found = validate(replaced(PARSED[name], path, new))
    assert [(d.element, d.rule, d.message) for d in found] == [(element, "wrong-type", message)]


def test_a_raise_on_a_well_typed_scenario_still_propagates(golden, monkeypatch):
    # A fault in the rules is not read as a wrongly typed value.
    def broken(*args):
        raise TypeError("fault")

    monkeypatch.setattr("deon.scenario.atom_findings", broken)
    with pytest.raises(TypeError, match="fault"):
        validate(golden["theft"])


def test_parsed_belief_keys_are_the_agent_constants(golden):
    for scenario in (golden["pedestrian"], parse_scenario(fixpoint_chain(4)).scenario):
        constraints = scenario.constraints
        assert constraints.beliefs
        assert all(agent in scenario.agents for agent in constraints.beliefs)
        assert constraints.belief_spans.keys() == constraints.beliefs.keys()


def test_the_theory_of_an_agent_outside_the_scenario_raises(golden):
    theft = golden["theft"]
    plan = theft.plans[0]
    without = dataclasses.replace(theft, agents=tuple(a for a in theft.agents if a != plan.agent))
    with pytest.raises(ScenarioError, match=f"unknown agent '{plan.agent}'"):
        QueryCompiler(without).check_generalization(plan)


# -- effects_for ---------------------------------------------------------------------


def test_effects_for_theft_guards_consequence(golden):
    theft = golden["theft"]
    formula = effects_for(theft, "steal")
    trigger = universalization_trigger("steal")
    assert isinstance(formula, Implies)
    assert formula.antecedent == AtomF(trigger)
    grounded = ground(formula, theft.agents, theft.objects)
    a, b = agent_const("a"), agent_const("b")
    assert grounded == Implies(
        AtomF(trigger),
        And((Not(AtomF(Atom("can_get_away", (a,)))), Not(AtomF(Atom("can_get_away", (b,)))))),
    )


def test_effects_for_plan_without_effects_is_true(golden):
    assert effects_for(golden["merge"], "merge") == TRUE


def test_effects_for_ambulance_covers_domain_product(golden):
    amb = golden["ambulance"]
    grounded = ground(effects_for(amb, "siren"), amb.agents, amb.objects)
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
    assert reference_logic.free_vars(commitment) == frozenset()
