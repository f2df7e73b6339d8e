"""Scenario data model: agents, plans, constraints, effects, utilities, candidates.

A scenario holds everything empirical. Once validated it is immutable and can
be shared across concurrent checker runs; the principle checks only read it.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from numbers import Rational
from types import UnionType
from typing import TYPE_CHECKING, get_args, get_origin, get_type_hints

from .logic import (
    AGENT,
    And,
    Atom,
    AtomF,
    Formula,
    ForAll,
    Implies,
    OBJECT,
    SignedAtom,
    Term,
    TRUE,
    UNIVERSALIZATION_PREDICATE,
    agent_var,
    children,
    conj,
    substitute_signed,
    universalization_trigger,
)

if TYPE_CHECKING:
    from .dsl import SourceSpan


class ScenarioError(Exception):
    """A scenario reference or configuration problem."""


@dataclass(frozen=True)
class PredicateDecl:
    """A predicate signature: argument sorts plus the condition/action flag."""

    name: str
    arg_sorts: tuple[str, ...] = ()
    is_action: bool = False
    span: "SourceSpan | None" = field(default=None, compare=False)

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


@dataclass(frozen=True)
class ActionPlan:
    """An agent's commitment to take the action whenever the reasons apply.

    `agent` is the agent constant, one of the scenario's `agents`.
    Occurrences of the agent inside reasons/action are stored as an agent
    variable named after the agent (the plan placeholder). Universal
    adoption quantifies over it, so every agent takes the plan's place.
    """

    id: str
    agent: Term
    reasons: tuple[SignedAtom, ...]
    action: SignedAtom
    object_vars: tuple[Term, ...] = ()
    span: "SourceSpan | None" = field(default=None, compare=False)

    @property
    def agent_placeholder(self) -> Term:
        return agent_var(self.agent.name)

    def instantiated_reasons(self) -> tuple[SignedAtom, ...]:
        """Reasons with the placeholder bound to the plan's own agent."""
        binding = {self.agent_placeholder: self.agent}
        return tuple(substitute_signed(r, binding) for r in self.reasons)

    def instantiated_action(self) -> SignedAtom:
        return substitute_signed(self.action, {self.agent_placeholder: self.agent})

    def universal_adoption(self) -> Formula:
        """Everyone adopting the plan, plus the plan's trigger atom.

        `forall placeholder. forall object vars. reasons -> action`: every
        agent whose reasons apply takes the action. The trigger switches on
        the scenario's universalization effects in the same query.
        """
        reasons = conj(tuple(r.as_formula() for r in self.reasons))
        adoption = self._close_object_vars(Implies(reasons, self.action.as_formula()))
        return And((
            ForAll(self.agent_placeholder, adoption),
            AtomF(universalization_trigger(self.id)),
        ))

    def reasons_formula(self) -> Formula:
        """Own-agent reasons, free object variables universally wrapped."""
        body = conj(tuple(r.as_formula() for r in self.instantiated_reasons()))
        return self._close_object_vars(body)

    def action_formula(self) -> Formula:
        return self._close_object_vars(self.instantiated_action().as_formula())

    def commitment_formula(self) -> Formula:
        """Reasons and action together, as asserted of the plan's own agent."""
        parts = tuple(r.as_formula() for r in self.instantiated_reasons())
        return self._close_object_vars(conj(parts + (self.instantiated_action().as_formula(),)))

    def _close_object_vars(self, body: Formula) -> Formula:
        for var in reversed(self.object_vars):
            body = ForAll(var, body)
        return body


@dataclass(frozen=True)
class ConstraintBase:
    """Global physical constraints plus per-agent rational-belief constraints.

    `beliefs` is keyed by the agent constant, one of the scenario's
    `agents`. An agent's theory, everything it is rationally required to
    accept, is the physics (common knowledge) followed by its own beliefs
    in declaration order. The span fields give each constraint's source
    location, index for index with `physical` and `beliefs`, under the same
    key; they are empty for constraints built in code.
    """

    physical: tuple[Formula, ...] = ()
    beliefs: Mapping[Term, tuple[Formula, ...]] = field(default_factory=dict)
    physical_spans: "tuple[SourceSpan, ...]" = field(default=(), compare=False)
    belief_spans: "Mapping[Term, tuple[SourceSpan, ...]]" = field(
        default_factory=dict, compare=False
    )


@dataclass(frozen=True)
class UniversalizationEffect:
    """An empirical consequence of a plan being adopted by everyone."""

    plan_id: str
    consequence: Formula
    span: "SourceSpan | None" = field(default=None, compare=False)


@dataclass(frozen=True)
class UtilityTable:
    """Net expected utility per (context, action); exact rationals.

    `spans` gives each entry's source location, under the same key; it is
    empty for tables built in code.
    """

    entries: Mapping[tuple[str, Atom], Fraction] = field(default_factory=dict)
    spans: "Mapping[tuple[str, Atom], SourceSpan]" = field(default_factory=dict, compare=False)

    def get(self, context: str, action: Atom) -> Fraction:
        try:
            return self.entries[(context, action)]
        except KeyError:
            raise ScenarioError(
                f"no utility entry for action {action} in context {context}"
            ) from None


@dataclass(frozen=True)
class CandidateSet:
    """The actions available under a shared set of conditions.

    Availability is asserted by inclusion; the utility principle quantifies
    over exactly this finite set.
    """

    context: str
    condition: tuple[SignedAtom, ...]
    actions: tuple[Atom, ...]
    span: "SourceSpan | None" = field(default=None, compare=False)


@dataclass(frozen=True)
class Scenario:
    """One scenario: its agent and object domains and everything empirical.

    `agents` and `objects` are the agent and object constants in
    declaration order, the domains `ground` quantifies over.
    """

    name: str
    agents: tuple[Term, ...]
    objects: tuple[Term, ...] = ()
    predicates: tuple[PredicateDecl, ...] = ()
    plans: tuple[ActionPlan, ...] = ()
    constraints: ConstraintBase = ConstraintBase()
    effects: tuple[UniversalizationEffect, ...] = ()
    utilities: UtilityTable = UtilityTable()
    candidates: tuple[CandidateSet, ...] = ()

    def plan(self, plan_id: str) -> ActionPlan:
        for p in self.plans:
            if p.id == plan_id:
                return p
        raise ScenarioError(f"unknown plan {plan_id!r}")


def effects_for(scenario: Scenario, plan_id: str) -> Formula:
    """Conjunction of the plan's universalization effects, trigger-guarded.

    Each declared consequence becomes (trigger -> consequence); with no
    declared effects the result is the neutral true formula.
    """
    scenario.plan(plan_id)  # raises ScenarioError for an unknown plan
    trigger = universalization_trigger(plan_id)
    parts = tuple(
        Implies(AtomF(trigger), e.consequence)
        for e in scenario.effects
        if e.plan_id == plan_id
    )
    return conj(parts) if parts else TRUE


def plan_context(scenario: Scenario, plan: ActionPlan) -> CandidateSet | None:
    """The candidate set whose condition matches the plan's own reasons.

    Plans with free object variables never match (candidate conditions are
    ground). Returns None when no context is declared for these conditions.
    """
    if plan.object_vars:
        return None
    reasons = frozenset(plan.instantiated_reasons())
    for cs in scenario.candidates:
        if frozenset(cs.condition) == reasons:
            return cs
    return None


# --------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Diagnostic:
    """One violated scenario rule, naming the offending element."""

    element: str
    rule: str
    message: str
    span: "SourceSpan | None" = field(default=None, compare=False)  # the element's, if known

    def __str__(self) -> str:
        return f"{self.element}: {self.message} [{self.rule}]"


# The rules both the parser and `validate` apply. Each gives its findings as
# (rule, message); the caller names the element and the place.
Finding = tuple[str, str]


def declare_constant(constants: dict[str, Term], name: str, sort: str) -> Finding | None:
    """Declare `name` a constant of `sort`; a name is declared once, as one sort."""
    known = constants.get(name)
    if known is None:
        constants[name] = Term(sort, name)
        return None
    if known.sort == sort:
        return "duplicate", f"{sort} {name} declared more than once"
    return "name-clash", f"{name} is already an {known.sort} name"


def atom_findings(atom: Atom, predicates: Mapping[str, PredicateDecl]) -> list[Finding]:
    """How the atom breaks its predicate's signature: name, arity or argument sorts."""
    decl = predicates.get(atom.predicate)
    if decl is None:
        return [("unknown-predicate", f"unknown predicate {atom.predicate}")]
    if len(atom.args) != decl.arity:
        return [("arity-mismatch",
                 f"predicate {atom.predicate} takes {decl.arity} arguments, got {len(atom.args)}")]
    return [
        ("kind-mismatch", f"argument {term.name} of {atom.predicate} should be an {sort}")
        for term, sort in zip(atom.args, decl.arg_sorts)
        if term.sort != sort
    ]


def validate(scenario: Scenario) -> list[Diagnostic]:
    """Check every scenario invariant; an empty list means all hold.

    Total and deterministic: diagnostics are the output, nothing raises.
    Constants (agents, then objects) and atoms are checked by
    `declare_constant` and `atom_findings`, the rules the parser applies.

    The rules read each field as its annotation types it. A scenario built
    in Python can hold a value of another type anywhere; when that makes a
    rule raise, the result is one `wrong-type` finding per such value
    instead. A raise on a scenario in which every value has its type is a
    fault in the rules, and propagates.
    """
    try:
        return _rule_findings(scenario)
    except (AttributeError, TypeError, ValueError):  # what a value of another type raises
        found = [Diagnostic(path, "wrong-type", message)
                 for path, message in _misfits(scenario, Scenario, "scenario")]
        if not found:
            raise
        return found


@cache
def _field_types(cls: type) -> dict[str, object]:
    from .dsl import SourceSpan  # the spans' type; dsl imports this module

    return get_type_hints(cls, localns={"SourceSpan": SourceSpan})


def _misfits(value: object, hint: object, path: str) -> Iterator[tuple[str, str]]:
    """Each place, with what is wrong there, where `value` (the value at
    `path`, annotated as `hint`) or a value inside it does not have the
    type its annotation gives."""
    if get_origin(hint) is UnionType:  # `X | None`: read as the alternative it is
        alternatives = get_args(hint)
        hint = next((a for a in alternatives if isinstance(value, get_origin(a) or a)), None)
        if hint is None:
            names = " or ".join(a.__name__ for a in alternatives)
            yield path, f"expected {names}, got {type(value).__name__}"
            return
    origin, args = get_origin(hint), get_args(hint)
    if not isinstance(value, origin or hint):
        yield path, f"expected {(origin or hint).__name__}, got {type(value).__name__}"
    elif origin is tuple:
        if args[1:] == (...,):
            args = args[:1] * len(value)
        if len(value) != len(args):
            yield path, f"expected {len(args)} items, got {len(value)}"
            return
        for i, (item, item_hint) in enumerate(zip(value, args)):
            yield from _misfits(item, item_hint, f"{path}[{i}]")
    elif origin is Mapping:
        for i, (key, item) in enumerate(value.items()):
            yield from _misfits(key, args[0], f"{path}.keys[{i}]")
            yield from _misfits(item, args[1], f"{path}.values[{i}]")
    elif dataclasses.is_dataclass(value):
        types = _field_types(type(value))
        for f in dataclasses.fields(value):
            yield from _misfits(getattr(value, f.name), types[f.name], f"{path}.{f.name}")


def _check_name(term: Term) -> None:
    """Raise if `term` has a name that is not a str: the rules compare and
    print names. A value with no name at all is left to the rule reading it."""
    name = getattr(term, "name", "")
    if not isinstance(name, str):
        raise TypeError(f"term name {name!r} is not a str")


def _rule_findings(scenario: Scenario) -> list[Diagnostic]:
    out: list[Diagnostic] = []

    def add(element: str, rule: str, message: str, span: SourceSpan | None = None) -> None:
        out.append(Diagnostic(element, rule, message, span))

    if not scenario.agents:
        add("scenario", "no-agents", "a scenario needs at least one agent")
    constants: dict[str, Term] = {}
    for sort, terms in ((AGENT, scenario.agents), (OBJECT, scenario.objects)):
        for term in terms:
            _check_name(term)
            if finding := declare_constant(constants, term.name, sort):
                add(f"{sort} {term.name}", *finding)
            if term != Term(sort, term.name):  # `ground` quantifies over terms as they are
                add(f"{sort} {term.name}", "kind-mismatch",
                    f"{term.name} should be an {sort} constant")

    # A plan's agent and a belief key must each be one of these.
    agents = frozenset(term for term in constants.values() if term.sort == AGENT)

    predicates: dict[str, PredicateDecl] = {}
    # The trigger atom prints without its "@", so a declared predicate of
    # that name would give two atoms the same name in witnesses.
    reserved = UNIVERSALIZATION_PREDICATE.lstrip("@")
    for decl in scenario.predicates:
        if decl.name in predicates:
            add(f"predicate {decl.name}", "duplicate",
                f"predicate {decl.name} declared more than once", decl.span)
        if decl.name == reserved:
            add(f"predicate {decl.name}", "reserved-predicate",
                f"predicate name {decl.name} is reserved for the universal-adoption trigger",
                decl.span)
        predicates[decl.name] = decl

    def check_atom(element: str, atom: Atom, bound: frozenset[Term] = frozenset(),
                   span: SourceSpan | None = None) -> None:
        for rule, message in atom_findings(atom, predicates):
            add(element, rule, message, span)
        for term in atom.args:
            _check_name(term)
            if term.is_var and term not in bound:
                add(element, "unbound-variable", f"variable {term.name} is not bound here", span)
            elif not term.is_var and constants.get(term.name) != term:
                add(element, "unknown-constant", f"unknown {term.sort} constant {term.name}", span)

    def check_formula(element: str, f: Formula, span: SourceSpan | None = None) -> None:
        def go(node: Formula, bound: frozenset[Term]) -> None:
            if isinstance(node, AtomF):
                check_atom(element, node.atom, bound, span)
                return
            if isinstance(node, ForAll):
                _check_name(node.var)
                if node.var.sort == OBJECT and not scenario.objects:
                    add(element, "no-object-constants",
                        f"quantified object variable {node.var.name} ranges over no object constants",
                        span)
                go(node.body, bound | {node.var})
                return
            if not isinstance(node, Formula):  # `children` would give it none
                raise TypeError(f"{type(node).__name__} is not a formula")
            for c in children(node):
                go(c, bound)

        go(f, frozenset())

    plan_ids: dict[str, ActionPlan] = {}
    for plan in scenario.plans:
        if not isinstance(plan.id, str):  # the engine names queries by it
            raise TypeError(f"plan id {plan.id!r} is not a str")
        element, span = f"plan {plan.id}", plan.span
        if plan.id in plan_ids:
            add(element, "duplicate", f"plan id {plan.id} declared more than once", span)
        plan_ids[plan.id] = plan
        _check_name(plan.agent)
        if plan.agent not in agents:
            # The rules below read the agent's name, which such a value may lack.
            add(element, "unknown-agent", f"unknown agent {plan.agent}", span)
            continue
        if not plan.reasons:
            add(element, "empty-reasons", "a plan needs at least one reason", span)
        allowed_vars = frozenset((plan.agent_placeholder,) + plan.object_vars)
        for sa in plan.reasons + (plan.action,):
            check_atom(element, sa.atom, allowed_vars, span)
        action_decl = predicates.get(plan.action.atom.predicate)
        if action_decl is not None and not action_decl.is_action:
            add(element, "not-an-action",
                f"predicate {plan.action.atom.predicate} is not declared as an action", span)
        if plan.object_vars and not scenario.objects:
            add(element, "no-object-constants",
                "plan has free object variables but the scenario declares no object constants",
                span)

    def span_at(spans: tuple[SourceSpan, ...], i: int) -> SourceSpan | None:
        return spans[i] if i < len(spans) else None

    constraints = scenario.constraints
    for i, f in enumerate(constraints.physical):
        check_formula(f"physics constraint {i + 1}", f, span_at(constraints.physical_spans, i))
    for agent, formulas in constraints.beliefs.items():
        _check_name(agent)
        if agent not in agents:
            add(f"belief {agent}", "unknown-agent", f"unknown agent {agent}")
        spans = constraints.belief_spans.get(agent, ())
        for i, f in enumerate(formulas):
            check_formula(f"belief of {agent}, constraint {i + 1}", f, span_at(spans, i))

    for effect in scenario.effects:
        element = f"on_universalized {effect.plan_id}"
        if effect.plan_id not in plan_ids:
            add(element, "unknown-plan", f"unknown plan {effect.plan_id}", effect.span)
        check_formula(element, effect.consequence, effect.span)

    contexts: dict[str, CandidateSet] = {}
    for cs in scenario.candidates:
        element, span = f"candidates {cs.context}", cs.span
        if cs.context in contexts:
            add(element, "duplicate",
                f"candidate context {cs.context} declared more than once", span)
        contexts[cs.context] = cs
        if not cs.actions:
            add(element, "empty-candidates", "a candidate set needs at least one action", span)
        for sa in cs.condition:
            check_atom(element, sa.atom, span=span)
        for i, atom in enumerate(cs.actions):
            if atom in cs.actions[:i]:
                add(element, "duplicate", f"candidate action {atom} listed more than once", span)
            check_atom(element, atom, span=span)
            decl = predicates.get(atom.predicate)
            if decl is not None and not decl.is_action:
                add(element, "not-an-action",
                    f"candidate {atom} is not declared as an action", span)
    seen_conditions: dict[frozenset[SignedAtom], str] = {}
    for cs in scenario.candidates:
        key = frozenset(cs.condition)
        if key in seen_conditions and seen_conditions[key] != cs.context:
            add(f"candidates {cs.context}", "ambiguous-context",
                f"contexts {seen_conditions[key]} and {cs.context} share the same condition",
                cs.span)
        seen_conditions.setdefault(key, cs.context)

    for (context, atom), value in scenario.utilities.entries.items():
        if not isinstance(value, Rational):  # the utility check compares them exactly
            raise TypeError(f"utility {value!r} is not a number")
        element, span = f"utility {context}", scenario.utilities.spans.get((context, atom))
        cs = contexts.get(context)
        if cs is None:
            add(element, "unknown-context", f"unknown candidate context {context}", span)
            continue
        check_atom(element, atom, span=span)
        if atom not in cs.actions:
            add(element, "not-a-candidate",
                f"utility entry {atom} is not among the context's candidate actions", span)
    for cs in scenario.candidates:
        for atom in cs.actions:
            if (cs.context, atom) not in scenario.utilities.entries:
                add(f"utility {cs.context}", "missing-utility",
                    f"candidate action {atom} has no utility entry", cs.span)

    for plan in scenario.plans:
        if plan.agent not in agents:
            continue
        ctx = plan_context(scenario, plan)
        if ctx is None:
            continue
        if plan.action.negated:
            add(f"plan {plan.id}", "candidate-missing-action",
                f"plan matches context {ctx.context} but its action is negated and cannot be a candidate",
                plan.span)
        elif plan.instantiated_action().atom not in ctx.actions:
            add(f"plan {plan.id}", "candidate-missing-action",
                f"plan's own action is missing from candidate context {ctx.context}", plan.span)

    return out

