"""Property tests over generated scenarios: print/parse round trips and
engine totality on inputs the curated files do not reach, quantified
constraints over small and empty domains included."""

import itertools

from hypothesis import given, settings, strategies as st

from deon.dsl import parse_scenario, print_scenario
from deon.principles import evaluate
from deon.scenario import validate

RATIONALS = ("0", "1", "2", "-3", "2.5", "1/3", "7/2", "-5/4")


@st.composite
def scenario_texts(draw) -> str:
    agents = [f"ag{i}" for i in range(draw(st.integers(1, 3)))]
    objects = [f"ob{i}" for i in range(draw(st.integers(0, 2)))]

    conditions: list[tuple[str, tuple[str, ...]]] = []
    arg_kinds = ["agent"] + (["object"] if objects else [])
    for i in range(draw(st.integers(1, 3))):
        arity = tuple(draw(st.lists(st.sampled_from(arg_kinds), min_size=0, max_size=2)))
        conditions.append((f"c{i}", arity))
    actions: list[tuple[str, tuple[str, ...]]] = []
    for i in range(draw(st.integers(1, 2))):
        actions.append((f"a{i}", ("agent",)))

    lines = ["scenario gen", "agents " + ", ".join(agents)]
    if objects:
        lines.append("objects " + ", ".join(objects))
    decls = [f"{name}({', '.join(arity)})" for name, arity in conditions]
    decls += [f"{name}({', '.join(arity)}) action" for name, arity in actions]
    lines.append("predicates " + ", ".join(decls))

    def atom_text(name: str, arity: tuple[str, ...], agent_pool, object_pool) -> str:
        args = []
        for kind in arity:
            pool = agent_pool if kind == "agent" else object_pool
            args.append(draw(st.sampled_from(pool)))
        return f"{name}({', '.join(args)})" if args else name

    plan_specs = []
    for p in range(draw(st.integers(0, 3))):
        agent = draw(st.sampled_from(agents))
        object_vars = ["v0"] if objects and draw(st.booleans()) else []
        object_pool = objects + object_vars
        reasons = []
        for _ in range(draw(st.integers(1, 2))):
            name, arity = draw(st.sampled_from(conditions))
            negated = draw(st.booleans())
            reasons.append(("not " if negated else "") + atom_text(name, arity, agents, object_pool))
        act_name, act_arity = draw(st.sampled_from(actions))
        action_negated = draw(st.booleans())
        action = atom_text(act_name, act_arity, agents, object_pool)
        header = f"plan p{p} agent {agent}"
        if object_vars:
            header += " forall " + ", ".join(object_vars)
        lines.append(header + ":")
        lines.append("  reasons { " + ", ".join(reasons) + " }")
        lines.append("  action { " + ("not " if action_negated else "") + action + " }")
        plan_specs.append(
            {
                "id": f"p{p}",
                "reasons_key": frozenset(reasons),
                "action": action,
                "action_negated": action_negated,
                "has_object_vars": bool(object_vars),
            }
        )

    quantifier_counter = [0]

    def formula_text(depth: int) -> str:
        kind = draw(st.integers(0, 5 if depth > 0 else 1))
        if kind <= 1:
            name, arity = draw(st.sampled_from(conditions + actions))
            base = atom_text(name, arity, agents, objects if objects else agents)
            # zero-arity predicates drawn with object args never happen: pools
            # only fill declared positions
            return base if kind == 0 else f"not {base}"
        if kind == 2:
            return f"({formula_text(depth - 1)} and {formula_text(depth - 1)})"
        if kind == 3:
            return f"({formula_text(depth - 1)} or {formula_text(depth - 1)})"
        if kind == 4:
            return f"({formula_text(depth - 1)} -> {formula_text(depth - 1)})"
        # quantifier whose variable is used at least once
        candidates = [(n, a) for n, a in conditions + actions if a]
        if not candidates:
            return formula_text(depth - 1)
        name, arity = draw(st.sampled_from(candidates))
        position = draw(st.integers(0, len(arity) - 1))
        var_kind = arity[position]
        if var_kind == "object" and not objects:
            return formula_text(depth - 1)
        var = f"q{quantifier_counter[0]}"
        quantifier_counter[0] += 1
        args = []
        for i, kind_i in enumerate(arity):
            if i == position:
                args.append(var)
            else:
                args.append(draw(st.sampled_from(agents if kind_i == "agent" else objects)))
        return f"forall {var}. {name}({', '.join(args)})"

    if draw(st.booleans()):
        body = "; ".join(formula_text(2) for _ in range(draw(st.integers(1, 2))))
        lines.append("physics { " + body + "; }")
    if draw(st.booleans()):
        believer = draw(st.sampled_from(agents))
        lines.append("belief " + believer + " { " + formula_text(2) + "; }")
    for spec in plan_specs:
        if draw(st.booleans()):
            lines.append("on_universalized " + spec["id"] + " { " + formula_text(2) + "; }")

    # candidates/utilities for one plan with unique ground positive action
    eligible_specs = [
        s
        for s in plan_specs
        if not s["action_negated"]
        and not s["has_object_vars"]
        and sum(1 for t in plan_specs if t["reasons_key"] == s["reasons_key"]) == 1
    ]
    if eligible_specs and draw(st.booleans()):
        spec = draw(st.sampled_from(eligible_specs))
        alternatives = [spec["action"]]
        act_name, act_arity = draw(st.sampled_from(actions))
        extra = atom_text(act_name, act_arity, agents, objects if objects else agents)
        if extra not in alternatives:
            alternatives.append(extra)
        lines.append(
            "candidates ctx given { "
            + ", ".join(sorted(spec["reasons_key"]))
            + " } { "
            + ", ".join(alternatives)
            + " }"
        )
        entries = [
            f"{action} = {draw(st.sampled_from(RATIONALS))};" for action in alternatives
        ]
        lines.append("utility ctx { " + " ".join(entries) + " }")

    return "\n".join(lines) + "\n"


@given(scenario_texts())
@settings(max_examples=80, deadline=None)
def test_generated_scenarios_round_trip(text):
    parsed = parse_scenario(text)
    assert parsed.ok, [str(d) for d in parsed.diagnostics]
    scenario = parsed.scenario
    assert validate(scenario) == []
    printed = print_scenario(scenario)
    reparsed = parse_scenario(printed)
    assert reparsed.ok, [str(d) for d in reparsed.diagnostics]
    assert reparsed.scenario == scenario
    assert print_scenario(reparsed.scenario) == printed


@given(scenario_texts())
@settings(max_examples=50, deadline=None)
def test_engine_is_total_and_deterministic_on_generated_scenarios(text):
    scenario = parse_scenario(text).scenario
    assert scenario is not None
    first = evaluate(scenario)
    second = evaluate(scenario)
    assert first == second
    assert set(first.statuses()) == {p.id for p in scenario.plans}
    assert first.rounds <= len(scenario.plans) + 1
    for pv in first.plans:
        assert pv.overall in ("ethical", "unethical", "indeterminate")


#: Predicates declared beside a generated scenario's own, for the quantified
#: constraints appended to it: name and argument sorts.
QUANTIFIED_PREDICATES = {"qa": ("agent", "object"), "qb": ("agent",), "qc": ("object",),
                         "qd": ("agent", "agent")}


@st.composite
def quantified_scenario_texts(draw) -> str:
    """A generated scenario with physics, belief and effect constraints
    appended that nest agent and object quantifiers. With no object
    constants declared, an object quantifier ranges over the empty domain,
    which `validate` refuses; every other such text validates clean."""
    base = draw(scenario_texts())
    scenario = parse_scenario(base).scenario
    constants = {"agent": [a.name for a in scenario.agents],
                 "object": [o.name for o in scenario.objects]}
    fresh = (f"x{i}" for i in itertools.count())

    def atom(bound: dict[str, str], var: str | None = None) -> str:
        """An atom over constants and the bound variables; it names `var` if given."""
        fillers = {sort: names + [v for v, s in bound.items() if s == sort]
                   for sort, names in constants.items()}
        usable = [name for name, sorts in QUANTIFIED_PREDICATES.items()
                  if all(fillers[s] for s in sorts)
                  and (var is None or bound[var] in sorts)]
        name = draw(st.sampled_from(usable))
        sorts = QUANTIFIED_PREDICATES[name]
        args = [draw(st.sampled_from(fillers[s])) for s in sorts]
        if var is not None:
            args[draw(st.sampled_from([i for i, s in enumerate(sorts) if s == bound[var]]))] = var
        return f"{name}({', '.join(args)})"

    def formula(depth: int, bound: dict[str, str]) -> str:
        kind = draw(st.integers(0, 5 if depth > 0 else 1))
        if kind <= 1:
            return ("not " if kind else "") + atom(bound)
        if kind == 2:
            op = draw(st.sampled_from(("and", "or", "->")))
            return f"({formula(depth - 1, bound)} {op} {formula(depth - 1, bound)})"
        return quantified(depth, bound)

    def quantified(depth: int, bound: dict[str, str]) -> str:
        """A quantifier whose variable fills a position of its sort at least once."""
        var = next(fresh)
        inner = {**bound, var: draw(st.sampled_from(("agent", "object")))}
        body = atom(inner, var)
        if draw(st.booleans()):
            op = draw(st.sampled_from(("and", "or", "->")))
            body = f"({body} {op} {formula(depth - 1, inner)})"
        return f"forall {var}. {body}"

    lines = [
        base.rstrip("\n"),
        "predicates " + ", ".join(f"{name}({', '.join(sorts)})"
                                  for name, sorts in QUANTIFIED_PREDICATES.items()),
        "physics { " + quantified(3, {}) + "; }",
    ]
    if draw(st.booleans()):
        lines.append(f"belief {draw(st.sampled_from(constants['agent']))} {{ "
                     + quantified(3, {}) + "; }")
    for plan in scenario.plans:
        if draw(st.booleans()):
            lines.append(f"on_universalized {plan.id} {{ " + quantified(3, {}) + "; }")
    return "\n".join(lines) + "\n"


@given(quantified_scenario_texts())
@settings(max_examples=80, deadline=None)
def test_a_generated_scenario_that_validates_clean_evaluates(text):
    parsed = parse_scenario(text)
    if parsed.ok:
        verdicts = evaluate(parsed.scenario, budget=1000)
        assert set(verdicts.statuses()) == {p.id for p in parsed.scenario.plans}
    else:
        assert parsed.diagnostics and all(
            d.code == "validation" and d.message.endswith("[no-object-constants]")
            for d in parsed.diagnostics
        ), [str(d) for d in parsed.diagnostics]
