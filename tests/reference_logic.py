"""Query construction as it was before theory fragments, kept as an oracle.

`deon.principles` compiles each agent's theory, the physics and then the
agent's belief constraints, once into one fragment and solves every
query against it in place; the query-numbered clause sets it derives
must still be exactly what these functions build: the same atoms in the
same order, the same aux count, clauses and labels. The bodies are the
original builder and query functions, unchanged apart from the check for
modal nodes, which no longer exist, the object domain, which is given as
constants, and the theory, which they read from `scenario.constraints`
themselves; they ground and convert the whole theory for every query.

The grounder is the original one too: `substitute` copies each quantifier
body once per constant, and universal adoption is a `UniversalizedPlan`
node that `ground` expands into one flat conjunction of material
conditionals. `deon.logic.ground` binds variables through an environment
and grounds `ActionPlan.universal_adoption()` as an ordinary formula.

`conversion_error` is the oracle for the errors of the engine's one-pass
grounding and conversion: which error it raises first, and its text.

The oracle for the clause conversion lives here as well:
`evaluate_formula` gives the truth value of a ground formula under an
assignment, and `to_clauses` converts one formula with the engine's
`deon.logic.compile_fragment`, so a test can compare the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from deon import logic
from deon.logic import (
    AGENT,
    Atom,
    AtomF,
    And,
    ForAll,
    Formula,
    GroundClauseSet,
    GroundingError,
    Implies,
    LogicError,
    Not,
    Or,
    TRUE,
    Term,
    agent_const,
    atoms_of,
    children,
    conj,
    substitute_atom,
    substitute_signed,
    universalization_trigger,
    walk,
)
from deon.scenario import ActionPlan, Scenario, effects_for

@dataclass(frozen=True)
class UniversalizedPlan(Formula):
    """Hypothetical adoption of a declared plan by every agent."""

    plan_id: str


def substitute(f: Formula, binding: Mapping[Term, Term]) -> Formula:
    """Replace free variables by constants; bound occurrences are untouched."""
    if not binding:
        return f
    if isinstance(f, AtomF):
        return AtomF(substitute_atom(f.atom, binding))
    if isinstance(f, Not):
        return Not(substitute(f.body, binding))
    if isinstance(f, And):
        return And(tuple(substitute(p, binding) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(substitute(p, binding) for p in f.parts))
    if isinstance(f, Implies):
        return Implies(substitute(f.antecedent, binding), substitute(f.consequent, binding))
    if isinstance(f, ForAll):
        inner = {v: c for v, c in binding.items() if v != f.var}
        return ForAll(f.var, substitute(f.body, inner)) if inner else f
    if isinstance(f, UniversalizedPlan):
        return f
    raise LogicError(f"unknown formula node {type(f).__name__}")


def free_vars(f: Formula) -> frozenset[Term]:
    """Variables occurring outside any binding quantifier."""

    def go(node: Formula, bound: frozenset[Term]) -> frozenset[Term]:
        if isinstance(node, AtomF):
            return frozenset(t for t in node.atom.args if t.is_var and t not in bound)
        if isinstance(node, ForAll):
            return go(node.body, bound | {node.var})
        out: frozenset[Term] = frozenset()
        for c in children(node):
            out |= go(c, bound)
        return out

    return go(f, frozenset())


def _plan_instance(plan: ActionPlan, binding: Mapping[Term, Term]) -> Formula:
    reasons = conj(tuple(substitute_signed(r, binding).as_formula() for r in plan.reasons))
    action = substitute_signed(plan.action, binding).as_formula()
    return Implies(reasons, action)


def expand_universalized_plan(
    plan: ActionPlan,
    agents: Sequence[Term],
    objects: Sequence[Term],
) -> Formula:
    """Material-conditional reading of everyone adopting the plan.

    One conditional per agent (and per combination of the plan's free object
    variables), conjoined with the plan's trigger atom, which switches on the
    scenario's universalization effects in the same satisfiability check.
    """
    if not agents:
        raise GroundingError("empty agent domain")
    if plan.object_vars and not objects:
        raise GroundingError(
            f"plan {plan.id} has free object variables but no object constants are declared"
        )
    conditionals: list[Formula] = []
    for ag in agents:
        base = {plan.agent_placeholder: agent_const(ag.name)}
        if plan.object_vars:
            for combo in itertools.product(objects, repeat=len(plan.object_vars)):
                binding = dict(base)
                binding.update(zip(plan.object_vars, combo))
                conditionals.append(_plan_instance(plan, binding))
        else:
            conditionals.append(_plan_instance(plan, base))
    conditionals.append(AtomF(universalization_trigger(plan.id)))
    return And(tuple(conditionals))


def ground(
    f: Formula,
    agents: Sequence[Term],
    objects: Sequence[Term] = (),
    plans: Mapping[str, ActionPlan] | None = None,
) -> Formula:
    """Expand quantifiers and universalized-plan nodes over finite domains.

    Free variables are universally closed over their sort's domain first
    (in first-occurrence order), so the result never has free variables.
    Deterministic: identical inputs, including domain order, give
    structurally identical output.
    """
    if not agents:
        raise GroundingError("empty agent domain")

    agent_terms = tuple(agent_const(a.name) for a in agents)

    def go(node: Formula) -> Formula:
        if isinstance(node, AtomF):
            return node
        if isinstance(node, Not):
            return Not(go(node.body))
        if isinstance(node, And):
            return And(tuple(go(p) for p in node.parts))
        if isinstance(node, Or):
            return Or(tuple(go(p) for p in node.parts))
        if isinstance(node, Implies):
            return Implies(go(node.antecedent), go(node.consequent))
        if isinstance(node, ForAll):
            domain = agent_terms if node.var.sort == AGENT else objects
            if not domain:
                raise GroundingError(
                    f"empty {node.var.sort} domain for quantified variable {node.var.name}"
                )
            return conj(tuple(go(substitute(node.body, {node.var: c})) for c in domain))
        if isinstance(node, UniversalizedPlan):
            if plans is None or node.plan_id not in plans:
                raise GroundingError(f"no plan named {node.plan_id!r} to expand")
            return expand_universalized_plan(plans[node.plan_id], agents, objects)
        raise LogicError(f"unknown formula node {type(node).__name__}")

    return go(closed(f))


def closed(f: Formula) -> Formula:
    """`f` with its free variables universally closed, in first-occurrence
    order (the first one innermost)."""
    for var in _ordered_free_vars(f):
        f = ForAll(var, f)
    return f


def _ordered_free_vars(f: Formula) -> list[Term]:
    free = free_vars(f)
    seen: list[Term] = []

    def go(node: Formula, bound: frozenset[Term]) -> None:
        if isinstance(node, AtomF):
            for t in node.atom.args:
                if t.is_var and t in free and t not in bound and t not in seen:
                    seen.append(t)
            return
        if isinstance(node, ForAll):
            go(node.body, bound | {node.var})
            return
        for c in children(node):
            go(c, bound)

    go(f, frozenset())
    return seen


def conversion_error(
    parts: Sequence[tuple[Formula, str]], agents: Sequence[Term], objects: Sequence[Term]
) -> tuple[type, str] | None:
    """The error that grounding and converting `parts` in one pass raises
    first, as its type and text, or None if there is none.

    The pass meets the parts in order, and each formula in syntactic order,
    one instance of a quantifier after another in domain order. It stops at
    the first quantifier over an empty domain (`GroundingError`), the first
    atom still not ground once the bound variables are replaced
    (`LogicError`), or the first node it cannot encode. Free variables are
    not closed and sorts are not checked: a bound variable is replaced by
    whatever constant the domain holds.
    """

    def go(node: Formula, env: dict[Term, Term]) -> None:
        if isinstance(node, AtomF):
            atom = Atom(node.atom.predicate, tuple(env.get(t, t) for t in node.atom.args))
            if not atom.is_ground():
                raise LogicError(f"non-ground atom {atom} in clause conversion")
        elif isinstance(node, ForAll):
            domain = agents if node.var.sort == AGENT else objects
            if not domain:
                raise GroundingError(
                    f"empty {node.var.sort} domain for quantified variable {node.var.name}"
                )
            for c in domain:
                go(node.body, {**env, node.var: c})
        elif isinstance(node, (Not, And, Or, Implies)):
            for child in children(node):
                go(child, env)
        else:
            raise LogicError(f"cannot encode {type(node).__name__} node")

    try:
        for formula, _ in parts:
            go(formula, {})
    except LogicError as error:
        return type(error), str(error)
    return None


class ClauseBuilder:
    """Accumulates labeled ground formulas into one equisatisfiable clause set.

    Conversion is definitional: fresh atoms name compound subformulas instead
    of distributing disjunctions, so size stays linear. Satisfiability, not
    logical equivalence, is the contract.
    """

    def __init__(self) -> None:
        self._parts: list[tuple[Formula, str]] = []

    def add(self, formula: Formula, label: str = "") -> "ClauseBuilder":
        for node in walk(formula):
            if isinstance(node, (ForAll, UniversalizedPlan)):
                raise LogicError("clause conversion requires a ground formula")
            if isinstance(node, AtomF) and not node.atom.is_ground():
                raise LogicError(f"non-ground atom {node.atom} in clause conversion")
        self._parts.append((formula, label))
        return self

    def build(self) -> GroundClauseSet:
        index: dict[Atom, int] = {}
        atoms: list[Atom] = []
        for f, _ in self._parts:
            for atom in atoms_of(f):
                if atom not in index:
                    index[atom] = len(atoms)
                    atoms.append(atom)

        n_real = len(atoms)
        aux_count = 0
        clauses: list[tuple[int, ...]] = []
        labels: list[str] = []

        def new_aux() -> int:
            nonlocal aux_count
            lit = n_real + aux_count + 1
            aux_count += 1
            return lit

        def emit(lits: Sequence[int], label: str) -> None:
            clauses.append(tuple(lits))
            labels.append(label)

        def encode(f: Formula, label: str) -> int:
            if isinstance(f, AtomF):
                return index[f.atom] + 1
            if isinstance(f, Not):
                return -encode(f.body, label)
            if isinstance(f, Implies):
                return encode(Or((Not(f.antecedent), f.consequent)), label)
            if isinstance(f, And):
                if not f.parts:
                    v = new_aux()
                    emit([v], label)
                    return v
                lits = [encode(p, label) for p in f.parts]
                if len(lits) == 1:
                    return lits[0]
                v = new_aux()
                for lit in lits:
                    emit([-v, lit], label)
                emit([v] + [-lit for lit in lits], label)
                return v
            if isinstance(f, Or):
                if not f.parts:
                    v = new_aux()
                    emit([v], label)
                    emit([-v], label)
                    return v
                lits = [encode(p, label) for p in f.parts]
                if len(lits) == 1:
                    return lits[0]
                v = new_aux()
                emit([-v] + lits, label)
                for lit in lits:
                    emit([v, -lit], label)
                return v
            raise LogicError(f"cannot encode {type(f).__name__} node")

        def assert_top(f: Formula, label: str) -> None:
            # Keep top-level structure flat: conjunctions split into their
            # parts and a top disjunction/implication becomes one clause.
            if isinstance(f, And):
                for p in f.parts:
                    assert_top(p, label)
                return
            if isinstance(f, Implies):
                assert_top(Or((Not(f.antecedent), f.consequent)), label)
                return
            if isinstance(f, Or) and f.parts:
                emit([encode(p, label) for p in f.parts], label)
                return
            if isinstance(f, Or):  # empty disjunction: unsatisfiable
                v = new_aux()
                emit([v], label)
                emit([-v], label)
                return
            emit([encode(f, label)], label)

        for f, label in self._parts:
            assert_top(f, label)

        return GroundClauseSet(tuple(atoms), aux_count, tuple(clauses), tuple(labels))


def _constraint_parts(scenario: Scenario, agent: Term) -> list[tuple[Formula, str]]:
    """The agent's theory: the physics, then its own belief constraints."""
    constraints = scenario.constraints
    return [(f, "physical constraint") for f in constraints.physical] + [
        (f, f"rational constraint of agent {agent}") for f in constraints.beliefs.get(agent, ())
    ]


def generalization_query(plan: ActionPlan, scenario: Scenario) -> GroundClauseSet:
    """Ground query behind the generalization check.

    Conjunction of: every agent adopting the plan (material conditionals plus
    the universalization trigger), the plan's declared universalization
    effects, the plan's own reasons and action, and the agent's
    rational-constraint theory. The plan passes iff this is satisfiable.
    """
    agents, objects, plans = scenario.agents, scenario.objects, {p.id: p for p in scenario.plans}
    builder = ClauseBuilder()
    builder.add(
        ground(UniversalizedPlan(plan.id), agents, objects, plans),
        f"universal adoption of plan {plan.id}",
    )
    effects = effects_for(scenario, plan.id)
    if effects != TRUE:
        builder.add(
            ground(effects, agents, objects),
            f"universalization effect of plan {plan.id}",
        )
    builder.add(
        ground(plan.commitment_formula(), agents, objects),
        f"reasons and action of plan {plan.id}",
    )
    for f, label in _constraint_parts(scenario, plan.agent):
        builder.add(ground(f, agents, objects), label)
    return builder.build()


def autonomy_pair_queries(
    plan: ActionPlan, other: ActionPlan, scenario: Scenario
) -> tuple[GroundClauseSet, GroundClauseSet]:
    """The two disjunct queries for one autonomy pair, from `plan`'s standpoint.

    First: both actions together with the acting agent's theory (pass if
    satisfiable). Second: both plans' reasons together with the same theory
    (pass if unsatisfiable: the plans can never come into conflict).
    """
    agents, objects = scenario.agents, scenario.objects
    constraints = _constraint_parts(scenario, plan.agent)

    actions = ClauseBuilder()
    actions.add(ground(plan.action_formula(), agents, objects), f"action of plan {plan.id}")
    actions.add(ground(other.action_formula(), agents, objects), f"action of plan {other.id}")
    for f, label in constraints:
        actions.add(ground(f, agents, objects), label)

    reasons = ClauseBuilder()
    reasons.add(ground(plan.reasons_formula(), agents, objects), f"reasons of plan {plan.id}")
    reasons.add(ground(other.reasons_formula(), agents, objects), f"reasons of plan {other.id}")
    for f, label in constraints:
        reasons.add(ground(f, agents, objects), label)

    return actions.build(), reasons.build()


def action_alone_query(plan: ActionPlan, scenario: Scenario) -> GroundClauseSet:
    """The plan's action with the acting agent's theory.

    It decides the actions disjunct of every pair whose other action names
    no atom of this query: such an action only adds unit clauses over
    atoms of its own.
    """
    agents, objects = scenario.agents, scenario.objects
    builder = ClauseBuilder()
    builder.add(ground(plan.action_formula(), agents, objects), f"action of plan {plan.id}")
    for f, label in _constraint_parts(scenario, plan.agent):
        builder.add(ground(f, agents, objects), label)
    return builder.build()


# --------------------------------------------------------------------------
# Ground truth evaluation (testing oracle for the clause conversion)


def evaluate_formula(f: Formula, assignment: Mapping[Atom, bool]) -> bool:
    """Truth value of a ground formula under a total assignment."""
    if isinstance(f, AtomF):
        if f.atom not in assignment:
            raise LogicError(f"assignment does not cover atom {f.atom}")
        return assignment[f.atom]
    if isinstance(f, Not):
        return not evaluate_formula(f.body, assignment)
    if isinstance(f, And):
        return all(evaluate_formula(p, assignment) for p in f.parts)
    if isinstance(f, Or):
        return any(evaluate_formula(p, assignment) for p in f.parts)
    if isinstance(f, Implies):
        return (not evaluate_formula(f.antecedent, assignment)) or evaluate_formula(
            f.consequent, assignment
        )
    raise LogicError(f"cannot evaluate {type(f).__name__} node")


def to_clauses(f: Formula) -> GroundClauseSet:
    """Equisatisfiable clause set for one ground formula, built by the engine."""
    return logic.compile_fragment([(f, "")])
