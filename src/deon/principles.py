"""The three plan principles and the fixpoint verdict engine.

Each principle produces a necessary condition for a plan to be in the clear;
the scenario's constraints decide those conditions through satisfiability
queries. `evaluate` is a pure function of the scenario. A plan's
generalization verdict and an autonomy pair's verdict depend on the scenario
alone, so each is decided once per evaluation and reused in later rounds;
the previous round's statuses only choose which pairs are consulted and
which alternatives are eligible for the utility comparison. Every decided
query is recorded once, as a `ModalQuery`, in the evaluation's
`VerdictSet.queries`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .logic import (
    Atom,
    ClauseBuilder,
    Formula,
    GroundClauseSet,
    TRUE,
    Term,
    atoms_of,
    compile_fragment,
    ground,
)
from .sat import DEFAULT_BUDGET, BudgetExhausted, ConflictExplanation, Model, solve
from .scenario import (
    ActionPlan,
    Scenario,
    ScenarioError,
    belief_theory,
    effects_for,
    plan_context,
)

GENERALIZATION = "generalization"
UTILITY = "utility"
AUTONOMY = "autonomy"

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"

ETHICAL = "ethical"
UNETHICAL = "unethical"


# --------------------------------------------------------------------------
# Evidence carried by verdicts


@dataclass(frozen=True)
class Witness:
    """A satisfying model showing the checked condition can hold."""

    clause_set: GroundClauseSet
    model: Model


@dataclass(frozen=True)
class QueryConflict:
    """The query is unsatisfiable; the clauses name what clashed."""

    clause_set: GroundClauseSet
    conflict: ConflictExplanation


@dataclass(frozen=True)
class ModalQuery:
    """One decided satisfiability query: "can `agent` rationally believe this
    possible?", asked of the agent's theory.

    `evidence` is the query's Witness or QueryConflict, or None when the
    decision budget ran out first.
    """

    check: str
    agent: str
    clause_set: GroundClauseSet
    evidence: Witness | QueryConflict | None

    @property
    def satisfiable(self) -> bool | None:
        if self.evidence is None:
            return None
        return isinstance(self.evidence, Witness)


@dataclass(frozen=True)
class ReasonsContradiction:
    """Autonomy held through the second disjunct: the two plans' reasons
    cannot jointly apply, so the actions can never come into conflict."""

    other_plan: str
    reasons: QueryConflict


@dataclass(frozen=True)
class PlanInterference:
    """Autonomy failed: the actions cannot coexist and the reasons can."""

    other_plan: str
    actions: QueryConflict
    reasons: Witness


@dataclass(frozen=True)
class Dominated:
    """An eligible alternative carries strictly higher utility."""

    context: str
    action: Atom
    utility: Fraction
    dominator: Atom
    dominator_utility: Fraction


@dataclass(frozen=True)
class UtilityComparison:
    """The plan's action is utility-maximal among eligible alternatives."""

    context: str
    action: Atom
    utility: Fraction
    alternatives: tuple[tuple[Atom, Fraction, bool], ...]  # (action, utility, eligible)


@dataclass(frozen=True)
class AutonomyClear:
    """Every protected plan of other agents was checked and none conflicts.

    Each pair records how it held: a Witness (the actions can coexist,
    first disjunct) or a ReasonsContradiction (second disjunct).
    """

    pairs: tuple[tuple[str, object], ...]

    @property
    def checked_plans(self) -> tuple[str, ...]:
        return tuple(other for other, _ in self.pairs)


@dataclass(frozen=True)
class BudgetNote:
    note: str


@dataclass(frozen=True)
class Note:
    note: str


@dataclass(frozen=True)
class PrincipleVerdict:
    principle: str  # GENERALIZATION | UTILITY | AUTONOMY
    status: str  # PASS | FAIL | INDETERMINATE
    evidence: object


@dataclass(frozen=True)
class PlanVerdict:
    plan_id: str
    checks: tuple[PrincipleVerdict, ...]
    overall: str  # ETHICAL | UNETHICAL | INDETERMINATE

    def check(self, principle: str) -> PrincipleVerdict:
        for c in self.checks:
            if c.principle == principle:
                return c
        raise KeyError(principle)


@dataclass(frozen=True)
class VerdictSet:
    """The plans' verdicts, and every query the evaluation decided, in order."""

    scenario: str
    plans: tuple[PlanVerdict, ...]
    rounds: int
    stable: bool
    queries: tuple[ModalQuery, ...] = field(default=(), compare=False, repr=False)

    def plan(self, plan_id: str) -> PlanVerdict:
        for pv in self.plans:
            if pv.plan_id == plan_id:
                return pv
        raise KeyError(plan_id)

    def statuses(self) -> dict[str, str]:
        return {pv.plan_id: pv.overall for pv in self.plans}


# --------------------------------------------------------------------------
# Modal decision paths

# Both reduce to the same satisfiability question against the agent's
# rational-constraint theory, which is exactly why "can believe possible"
# and "not required to deny possible" must always agree.


def can_rationally_believe_possible(cs: GroundClauseSet, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the encoded state of affairs is consistent with the theory."""
    return solve(cs, budget).satisfiable


def rationally_required_to_deny_possible(cs: GroundClauseSet, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the theory refutes the encoded state of affairs."""
    return not solve(cs, budget).satisfiable


# --------------------------------------------------------------------------
# Queries and the checks that decide them


class QueryCompiler:
    """Builds, decides and records the satisfiability queries of one evaluation.

    A query is a list of labeled plan parts plus the acting agent's theory,
    and `_query` is the one place it is built. The physical constraints are
    grounded and compiled to a clause fragment once, and each agent's belief
    constraints once per agent, on first use; a query adds both after its
    plan parts and gets exactly the clause set that grounding and converting
    the whole theory each time would give.

    `_decide` builds and solves a query under `budget` decisions the first
    time its key is asked, and records it as a `ModalQuery` in `queries`;
    a later ask returns the recorded evidence. That table is both the
    evidence memo and the query log, one record per solve in decision
    order. A key is a tuple naming the query, such as
    `("autonomy", plan, other, "actions")`, and the record's `check` is its
    parts joined by `:`. The `check_*` methods are the only way to run the
    generalization and autonomy checks; `evaluate` makes one compiler per
    call, so nothing carries over between scenarios or calls.

    Within one evaluation each plan's generalization verdict and each
    ordered autonomy pair's verdict is decided once and then reused from a
    memo (`_memoized`): neither reads the round's protected or eligible
    sets, and the budget is fixed, so a later round would only repeat the
    same checks. `evaluate` therefore solves at most one query per plan and
    two per ordered pair of plans of distinct agents, however many rounds
    it runs.

    A pair whose other action names no atom of the acting plan's action or
    of its agent's physics and belief fragments (`_independent`, a test on
    atom sets alone) takes its actions evidence from the plan-alone query
    `("autonomy", plan, "actions")`: the plan's action part plus its
    agent's theory, decided once and shared by every such pair. That is
    exact under any budget: the other action grounds to unit clauses over
    atoms of their own, the solver's first propagation sets them before any
    decision (unless it refutes the query first) and never unsets them, so
    the joint query makes the same decisions and conflicts, and renders the
    same conflict lines, as the plan alone; its witness is the plan-alone
    model, in which the other action is a free fact. `autonomy_pair`, which
    `sat-debug` prints, still builds the full pair queries.
    """

    def __init__(self, scenario: Scenario, budget: int = DEFAULT_BUDGET) -> None:
        self.scenario = scenario
        self.budget = budget
        self.queries: dict[tuple[str, ...], ModalQuery] = {}
        self._physics: GroundClauseSet | None = None
        self._beliefs: dict[Term, GroundClauseSet] = {}
        self._actions: dict[str, tuple[tuple[Formula, str], frozenset[Atom]]] = {}
        self._verdicts: dict[str | tuple[str, str], PrincipleVerdict] = {}

    def _memoized(
        self, key: str | tuple[str, str], decide: Callable[[], PrincipleVerdict]
    ) -> PrincipleVerdict:
        """The verdict stored under `key`, from `decide()` on first use only."""
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = decide()
        return verdict

    def _ground(self, formula: Formula) -> Formula:
        return ground(formula, self.scenario.agents, self.scenario.objects)

    def _theory(self, agent: Term) -> tuple[GroundClauseSet, GroundClauseSet]:
        """The physics fragment and `agent`'s belief fragment, each compiled on first use."""
        physical = self.scenario.constraints.physical
        if self._physics is None:
            self._physics = compile_fragment(
                (self._ground(f), "physical constraint") for f in physical
            )
        beliefs = self._beliefs.get(agent)
        if beliefs is None:
            label = f"rational constraint of agent {agent.name}"
            beliefs = self._beliefs[agent] = compile_fragment(
                (self._ground(f), label)
                for f in belief_theory(self.scenario, agent)[len(physical):]
            )
        return self._physics, beliefs

    def _query(self, agent: Term, parts: Iterable[tuple[Formula, str]]) -> GroundClauseSet:
        """The ground `(formula, label)` plan parts, in order, then `agent`'s theory."""
        builder = ClauseBuilder()
        for formula, label in parts:
            builder.add(formula, label)
        physics, beliefs = self._theory(agent)
        return builder.add_fragment(physics).add_fragment(beliefs).build()

    def _decide(
        self, check: tuple[str, ...], plan: ActionPlan, parts: Iterable[tuple[Formula, str]]
    ) -> Witness | QueryConflict | None:
        """The evidence of `plan`'s query `check` over `parts`, or None when the
        budget ran out; built, solved and recorded in `queries` on first use."""
        query = self.queries.get(check)
        if query is None:
            cs = self._query(plan.agent, parts)
            try:
                result = solve(cs, self.budget)
            except BudgetExhausted:
                evidence = None
            else:
                evidence = (Witness(cs, result.model) if result.satisfiable
                            else QueryConflict(cs, result.conflict))
            query = self.queries[check] = ModalQuery(":".join(check), plan.agent.name, cs, evidence)
        return query.evidence

    def _action(self, plan: ActionPlan) -> tuple[tuple[Formula, str], frozenset[Atom]]:
        """`plan`'s ground action part and the atoms it names, grounded on first use."""
        action = self._actions.get(plan.id)
        if action is None:
            formula = self._ground(plan.action_formula())
            action = self._actions[plan.id] = (
                (formula, f"action of plan {plan.id}"), frozenset(atoms_of(formula))
            )
        return action

    def _reasons(self, plan: ActionPlan) -> tuple[Formula, str]:
        """`plan`'s ground reasons part."""
        return self._ground(plan.reasons_formula()), f"reasons of plan {plan.id}"

    def _independent(self, plan: ActionPlan, other: ActionPlan) -> bool:
        """Whether `other`'s action names no atom of `plan`'s action or its agent's theory."""
        ours, theirs = self._action(plan)[1], self._action(other)[1]
        physics, beliefs = self._theory(plan.agent)
        return (theirs.isdisjoint(ours)
                and theirs.isdisjoint(physics.atoms) and theirs.isdisjoint(beliefs.atoms))

    def _generalization_parts(self, plan: ActionPlan) -> list[tuple[Formula, str]]:
        """Every agent adopting the plan (material conditionals plus the
        universalization trigger), the plan's declared universalization
        effects, and the plan's own reasons and action, each ground."""
        parts = [(plan.universal_adoption(), f"universal adoption of plan {plan.id}")]
        effects = effects_for(self.scenario, plan.id)
        if effects != TRUE:
            parts.append((effects, f"universalization effect of plan {plan.id}"))
        parts.append((plan.commitment_formula(), f"reasons and action of plan {plan.id}"))
        return [(self._ground(f), label) for f, label in parts]

    def generalization(self, plan: ActionPlan) -> GroundClauseSet:
        """Ground query behind the generalization check: its plan parts with
        the agent's rational-constraint theory. The plan passes iff this is
        satisfiable."""
        return self._query(plan.agent, self._generalization_parts(plan))

    def autonomy_pair(
        self, plan: ActionPlan, other: ActionPlan
    ) -> tuple[GroundClauseSet, GroundClauseSet]:
        """The two disjunct queries for one autonomy pair, from `plan`'s standpoint.

        First: both actions together with the acting agent's theory (pass if
        satisfiable). Second: both plans' reasons together with the same
        theory (pass if unsatisfiable: the plans can never come into
        conflict).
        """
        return (self._query(plan.agent, [self._action(p)[0] for p in (plan, other)]),
                self._query(plan.agent, [self._reasons(p) for p in (plan, other)]))

    def check_generalization(self, plan: ActionPlan) -> PrincipleVerdict:
        """Can the agent rationally believe everyone could adopt the plan while
        the agent's reasons still apply and the action still happens?"""
        evidence = self._decide(
            ("generalization", plan.id), plan, self._generalization_parts(plan)
        )
        if evidence is None:
            return PrincipleVerdict(
                GENERALIZATION, INDETERMINATE,
                BudgetNote(f"decision budget exhausted on the generalization query for {plan.id}"),
            )
        status = PASS if isinstance(evidence, Witness) else FAIL
        return PrincipleVerdict(GENERALIZATION, status, evidence)

    def check_autonomy_pair(self, plan: ActionPlan, other: ActionPlan) -> PrincipleVerdict:
        """Is `plan` consistent with one other agent's plan?

        Passes if the agent can rationally believe both actions can hold
        together, or can rationally believe the two plans' reasons cannot
        jointly apply. The reasons query is built and asked only when the
        actions query is unsatisfiable, so every query built is solved once.
        """
        if plan.agent == other.agent:
            raise ScenarioError("autonomy is checked between plans of distinct agents")
        if self._independent(plan, other):
            actions = self._decide(("autonomy", plan.id, "actions"), plan, [self._action(plan)[0]])
        else:
            actions = self._decide(("autonomy", plan.id, other.id, "actions"), plan,
                                   [self._action(p)[0] for p in (plan, other)])
        if isinstance(actions, Witness):
            return PrincipleVerdict(AUTONOMY, PASS, actions)
        reasons = None
        if actions is not None:
            reasons = self._decide(("autonomy", plan.id, other.id, "reasons"), plan,
                                   [self._reasons(p) for p in (plan, other)])
        if reasons is None:
            return PrincipleVerdict(
                AUTONOMY, INDETERMINATE,
                BudgetNote(f"decision budget exhausted checking {plan.id} against {other.id}"),
            )
        if isinstance(reasons, QueryConflict):
            return PrincipleVerdict(AUTONOMY, PASS, ReasonsContradiction(other.id, reasons))
        return PrincipleVerdict(AUTONOMY, FAIL, PlanInterference(other.id, actions, reasons))

    def check_autonomy(self, plan: ActionPlan, protected: frozenset[str]) -> PrincipleVerdict:
        """Check `plan` against every protected plan of every other agent.

        The first failing pair decides a fail; plans of the agent itself are
        never checked against each other. `protected` is the round's set of
        plan ids still in the clear. Each pair is decided once per compiler.
        """
        pairs: list[tuple[str, object]] = []
        indeterminate: PrincipleVerdict | None = None
        for other in self.scenario.plans:
            if other.agent == plan.agent or other.id not in protected:
                continue
            verdict = self._memoized(
                (plan.id, other.id), lambda: self.check_autonomy_pair(plan, other)
            )
            if verdict.status == FAIL:
                return verdict
            if verdict.status == INDETERMINATE and indeterminate is None:
                indeterminate = verdict
            pairs.append((other.id, verdict.evidence))
        if indeterminate is not None:
            return indeterminate
        if not pairs:
            return PrincipleVerdict(
                AUTONOMY, PASS, Note("no protected plans of other agents to conflict with")
            )
        return PrincipleVerdict(AUTONOMY, PASS, AutonomyClear(tuple(pairs)))

    def _check_plan(
        self,
        plan: ActionPlan,
        protected: frozenset[str],
        eligible: frozenset[tuple[str, Atom]],
    ) -> PlanVerdict:
        checks = (
            self._memoized(plan.id, lambda: self.check_generalization(plan)),
            check_utility(plan, self.scenario, eligible),
            self.check_autonomy(plan, protected),
        )
        if any(c.status == FAIL for c in checks):
            overall = UNETHICAL
        elif all(c.status == PASS for c in checks):
            overall = ETHICAL
        else:
            overall = INDETERMINATE
        return PlanVerdict(plan.id, checks, overall)


# --------------------------------------------------------------------------
# The utility check, which decides no query


def check_utility(
    plan: ActionPlan, scenario: Scenario, eligible: frozenset[tuple[str, Atom]]
) -> PrincipleVerdict:
    """Does the action carry at least as much utility as every eligible
    alternative available under the same conditions?

    `eligible` is the round's set of (context, action) candidates still in
    the clear (see `eligible_actions`). The believability wrapper collapses
    to a point comparison: the scenario supplies the agent's expected
    utilities directly. A missing utility entry is a configuration error,
    not a fail.
    """
    context = plan_context(scenario, plan)
    if context is None:
        return PrincipleVerdict(
            UTILITY, PASS,
            Note("no candidate actions are declared for this plan's conditions"),
        )
    if plan.action.negated:
        raise ScenarioError(
            f"plan {plan.id} has a negated action and cannot enter utility comparison"
        )
    own = plan.instantiated_action().atom
    own_utility = scenario.utilities.get(context.context, own)
    alternatives: list[tuple[Atom, Fraction, bool]] = []
    dominator: tuple[Atom, Fraction] | None = None
    for act in context.actions:
        if act == own:
            continue
        utility = scenario.utilities.get(context.context, act)
        is_eligible = (context.context, act) in eligible
        alternatives.append((act, utility, is_eligible))
        if is_eligible and utility > own_utility:
            if dominator is None or utility > dominator[1]:
                dominator = (act, utility)
    if dominator is not None:
        return PrincipleVerdict(
            UTILITY, FAIL,
            Dominated(context.context, own, own_utility, dominator[0], dominator[1]),
        )
    return PrincipleVerdict(
        UTILITY, PASS,
        UtilityComparison(context.context, own, own_utility, tuple(alternatives)),
    )


# --------------------------------------------------------------------------
# Fixpoint engine


def eligible_actions(
    scenario: Scenario, protected: frozenset[str]
) -> frozenset[tuple[str, Atom]]:
    """Candidate (context, action) pairs usable in utility comparison.

    A candidate stays eligible unless some declared plan carries exactly
    that context and action and has dropped out of the protected set;
    candidates with no declared plan are never demonstrated unethical, so
    they remain eligible.
    """
    dropped = {
        (ctx.context, p.instantiated_action().atom)
        for p in scenario.plans
        if p.id not in protected
        and not p.action.negated
        and (ctx := plan_context(scenario, p)) is not None
    }
    return frozenset(
        (cs.context, act) for cs in scenario.candidates for act in cs.actions
    ) - dropped


def evaluate(scenario: Scenario, budget: int = DEFAULT_BUDGET) -> VerdictSet:
    """Run all three checks on every plan to a fixpoint.

    Starts optimistically (every plan presumed in the clear), then each
    round recomputes all checks using the previous round's outcome for
    eligibility and autonomy protection: protection is only withdrawn after
    a demonstrated failure. Indeterminate plans stay protected, which is the
    conservative reading. Terminates when two consecutive rounds agree or
    after len(plans)+1 rounds; plans still flipping at the bound are
    reported indeterminate with the stability flag false. Deterministic and
    independent of plan declaration order.
    """
    plans = scenario.plans
    assumed = {p.id: ETHICAL for p in plans}
    max_rounds = len(plans) + 1
    rounds = 0
    stable = False
    current: list[PlanVerdict] = []
    statuses: dict[str, str] = dict(assumed)
    last_in: dict[str, str] = dict(assumed)
    compiler = QueryCompiler(scenario, budget)

    while rounds < max_rounds:
        rounds += 1
        protected = frozenset(
            pid for pid, status in assumed.items() if status in (ETHICAL, INDETERMINATE)
        )
        eligible = eligible_actions(scenario, protected)
        current = [compiler._check_plan(p, protected, eligible) for p in plans]
        statuses = {pv.plan_id: pv.overall for pv in current}
        if statuses == assumed:
            stable = True
            break
        last_in = assumed
        assumed = statuses

    if not stable:
        oscillating = {pid for pid, status in statuses.items() if status != last_in[pid]}
        current = [
            dataclasses.replace(pv, overall=INDETERMINATE) if pv.plan_id in oscillating else pv
            for pv in current
        ]

    return VerdictSet(
        scenario.name, tuple(current), rounds, stable, tuple(compiler.queries.values())
    )
