"""Query construction as it was before theory fragments, kept as an oracle.

`deon.principles` compiles each agent's theory once and splices the
compiled fragment into every query; the clause sets must still be exactly
what these functions build: the same atoms in the same order, the same
aux count, clauses and labels. The bodies are the original builder and
query functions, unchanged apart from the check for modal nodes, which
no longer exist; they ground and convert the whole theory for every query.
"""

from __future__ import annotations

from typing import Sequence

from deon.logic import (
    Atom,
    AtomF,
    And,
    ForAll,
    Formula,
    GroundClauseSet,
    Implies,
    LogicError,
    Not,
    Or,
    TRUE,
    UniversalizedPlan,
    atoms_of,
    ground,
    walk,
)
from deon.scenario import ActionPlan, Scenario, belief_theory, effects_for


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


def _constraint_parts(scenario: Scenario, agent: str) -> list[tuple[Formula, str]]:
    n_physical = len(scenario.constraints.physical)
    parts = []
    for i, f in enumerate(belief_theory(scenario, agent)):
        label = "physical constraint" if i < n_physical else f"rational constraint of agent {agent}"
        parts.append((f, label))
    return parts


def generalization_query(plan: ActionPlan, scenario: Scenario) -> GroundClauseSet:
    """Ground query behind the generalization check.

    Conjunction of: every agent adopting the plan (material conditionals plus
    the universalization trigger), the plan's declared universalization
    effects, the plan's own reasons and action, and the agent's
    rational-constraint theory. The plan passes iff this is satisfiable.
    """
    agents, objects, plans = scenario.agents, scenario.objects, scenario.plan_map()
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
    for f, label in _constraint_parts(scenario, plan.agent.name):
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
    constraints = _constraint_parts(scenario, plan.agent.name)

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
