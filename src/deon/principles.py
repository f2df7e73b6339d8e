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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .logic import (
    Atom,
    ClauseBuilder,
    Formula,
    GroundClauseSet,
    TRUE,
    Term,
    TheoryQuery,
    atoms_of,
    compile_fragment,
    ground,
)
from .sat import DEFAULT_BUDGET, BudgetExhausted, ConflictExplanation, Model, solve
from .scenario import (
    ActionPlan,
    CandidateSet,
    Scenario,
    ScenarioError,
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
    """A satisfying model showing the checked condition can hold.

    `query` is the query as solved; the model is in query numbering, that
    of `clause_set`, which is built on first read.
    """

    query: TheoryQuery
    model: Model

    @property
    def clause_set(self) -> GroundClauseSet:
        return self.query.clause_set


@dataclass(frozen=True)
class QueryConflict:
    """The query is unsatisfiable; the clauses name what clashed.

    `query` is the query as solved; the conflict's clause indices are the
    same in `clause_set`, which is built on first read.
    """

    query: TheoryQuery
    conflict: ConflictExplanation

    @property
    def clause_set(self) -> GroundClauseSet:
        return self.query.clause_set


@dataclass(frozen=True)
class ModalQuery:
    """One decided satisfiability query: "can `agent` rationally believe this
    possible?", asked of the agent's theory. `agent` is the acting agent's
    constant, the plan's `agent`.

    `query` is the query as solved, and `clause_set` the query in query
    numbering, built on first read (see `TheoryQuery`). `evidence` is the
    query's Witness or QueryConflict, or None when the decision budget ran
    out first.
    """

    check: str
    agent: Term
    query: TheoryQuery
    evidence: Witness | QueryConflict | None

    @property
    def clause_set(self) -> GroundClauseSet:
        return self.query.clause_set

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


def can_rationally_believe_possible(
    cs: GroundClauseSet | TheoryQuery, budget: int = DEFAULT_BUDGET
) -> bool:
    """Whether the encoded state of affairs is consistent with the theory."""
    return solve(cs, budget).satisfiable


def rationally_required_to_deny_possible(
    cs: GroundClauseSet | TheoryQuery, budget: int = DEFAULT_BUDGET
) -> bool:
    """Whether the theory refutes the encoded state of affairs."""
    return not solve(cs, budget).satisfiable


# --------------------------------------------------------------------------
# Queries and the checks that decide them


class QueryCompiler:
    """Builds, decides and records the satisfiability queries of one evaluation.

    A query is a list of labeled plan parts plus the acting agent's theory,
    and `_query` is the one place it is built. Each agent's theory, the
    physics followed by the agent's belief constraints, is compiled into
    one clause fragment on first use (`_theory`), in one flat pass that
    grounds it over the scenario's domains (`compile_fragment`). Plan parts
    are grounded the same way, in the one pass of `ClauseBuilder` that
    encodes them. The one ground formula a query is built from is a plan's
    action part: `_action`, `ground`'s last caller, keeps it for the atom
    set that `_independent` reads. Every agent without belief constraints
    shares one fragment of the physics alone, compiled once per evaluation;
    each believing agent's pass grounds the physics again, ahead of its
    beliefs.

    A query is a `TheoryQuery` against its agent's fragment: only its plan
    parts are encoded, in the fragment's numbering, and it is solved over
    them followed by the fragment's clauses as compiled, branching in the
    query's own numbering. So no query copies or renumbers its theory, and
    the search, witness and conflict are those of the query-numbered
    clause set, which is exactly the one that grounding and converting the
    whole theory each time would give. A record stores the query as
    solved; that clause set is built only when something reads
    `clause_set`, such as `generalization` and `autonomy_pair`, which
    `sat-debug` prints. Printing a verdict's evidence does not build it.

    `_decide` builds and solves a query under `budget` decisions the first
    time its key is asked, and records it as a `ModalQuery` in `queries`;
    a later ask returns the recorded evidence. That table is both the
    evidence memo and the query log, one record per solve in decision
    order. A key is a tuple naming the query, such as
    `("autonomy", plan, other, "actions")`, and the record's `check` is its
    parts joined by `:`. The `check_*` methods are the only way to run the
    generalization and autonomy checks; `evaluate` makes one compiler per
    call, so nothing carries over between scenarios or calls.

    The table is the evaluation's one memo: a plan's generalization
    verdict and an ordered autonomy pair's verdict read no round state, and
    the budget is fixed, so asking a check again rebuilds its verdict from
    the recorded evidence and solves nothing. `evaluate` asks neither
    twice: its rounds ask each plan's generalization check once, in round
    1, and each pair's check the first time a round's scan reaches the
    pair, and keep the verdicts they get, so the last round's verdicts are
    the result. It therefore solves at most one query per plan and two per
    ordered pair of plans of distinct agents, however many rounds it runs.

    A pair whose other action names no atom of the acting plan's action or
    of its agent's theory (`_independent`, a test on atom sets alone) takes
    its actions evidence from the plan-alone query
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
        # The key None holds the physics alone, shared by every agent without beliefs.
        self._theories: dict[Term | None, GroundClauseSet] = {}
        self._actions: dict[str, tuple[tuple[Formula, str], frozenset[Atom]]] = {}

    def _theory(self, agent: Term) -> GroundClauseSet:
        """`agent`'s theory as one fragment, compiled on first use: the
        physics, then the agent's belief constraints in declaration order."""
        theory = self._theories.get(agent)
        if theory is None:
            if agent not in self.scenario.agents:
                raise ScenarioError(f"unknown agent {agent.name!r}")
            constraints = self.scenario.constraints
            beliefs = constraints.beliefs.get(agent, ())
            key = agent if beliefs else None
            theory = self._theories.get(key)
            if theory is None:
                label = f"rational constraint of agent {agent.name}"
                parts = [(f, "physical constraint") for f in constraints.physical]
                parts += [(f, label) for f in beliefs]
                theory = self._theories[key] = compile_fragment(
                    parts, self.scenario.agents, self.scenario.objects
                )
            self._theories[agent] = theory
        return theory

    def _query(self, agent: Term, parts: Iterable[tuple[Formula, str]]) -> TheoryQuery:
        """The closed `(formula, label)` plan parts, in order, grounded as they
        are encoded, then `agent`'s theory."""
        scenario = self.scenario
        builder = ClauseBuilder(self._theory(agent), scenario.agents, scenario.objects)
        for formula, label in parts:
            builder.add(formula, label)
        return builder.build()

    def _decide(
        self, check: tuple[str, ...], plan: ActionPlan, parts: Iterable[tuple[Formula, str]]
    ) -> Witness | QueryConflict | None:
        """The evidence of `plan`'s query `check` over `parts`, or None when the
        budget ran out; built, solved and recorded in `queries` on first use.
        `parts` is read only then."""
        query = self.queries.get(check)
        if query is None:
            solved = self._query(plan.agent, parts)
            try:
                result = solve(solved, self.budget)
            except BudgetExhausted:
                evidence = None
            else:
                evidence = (Witness(solved, result.model) if result.satisfiable
                            else QueryConflict(solved, result.conflict))
            query = self.queries[check] = ModalQuery(
                ":".join(check), plan.agent, solved, evidence
            )
        return query.evidence

    def _action(self, plan: ActionPlan) -> tuple[tuple[Formula, str], frozenset[Atom]]:
        """`plan`'s ground action part and the atoms it names, grounded on first
        use. The atom set is what `_independent` compares, so this is the one
        part that is grounded before it is encoded."""
        action = self._actions.get(plan.id)
        if action is None:
            formula = ground(plan.action_formula(), self.scenario.agents, self.scenario.objects)
            action = self._actions[plan.id] = (
                (formula, f"action of plan {plan.id}"), frozenset(atoms_of(formula))
            )
        return action

    def _reasons(self, plan: ActionPlan) -> tuple[Formula, str]:
        """`plan`'s reasons part."""
        return plan.reasons_formula(), f"reasons of plan {plan.id}"

    def _independent(self, plan: ActionPlan, other: ActionPlan) -> bool:
        """Whether `other`'s action names no atom of `plan`'s action or its agent's theory."""
        ours, theirs = self._action(plan)[1], self._action(other)[1]
        return theirs.isdisjoint(ours) and theirs.isdisjoint(self._theory(plan.agent).atoms)

    def _generalization_parts(self, plan: ActionPlan) -> Iterator[tuple[Formula, str]]:
        """Every agent adopting the plan (material conditionals plus the
        universalization trigger), the plan's declared universalization
        effects, and the plan's own reasons and action, each closed. Lazy, so
        a recorded query builds none of them."""
        yield plan.universal_adoption(), f"universal adoption of plan {plan.id}"
        effects = effects_for(self.scenario, plan.id)
        if effects != TRUE:
            yield effects, f"universalization effect of plan {plan.id}"
        yield plan.commitment_formula(), f"reasons and action of plan {plan.id}"

    def generalization(self, plan: ActionPlan) -> GroundClauseSet:
        """Ground query behind the generalization check: its plan parts with
        the agent's rational-constraint theory. The plan passes iff this is
        satisfiable."""
        return self._query(plan.agent, self._generalization_parts(plan)).clause_set

    def autonomy_pair(
        self, plan: ActionPlan, other: ActionPlan
    ) -> tuple[GroundClauseSet, GroundClauseSet]:
        """The two disjunct queries for one autonomy pair, from `plan`'s standpoint.

        First: both actions together with the acting agent's theory (pass if
        satisfiable). Second: both plans' reasons together with the same
        theory (pass if unsatisfiable: the plans can never come into
        conflict).
        """
        return (self._query(plan.agent, [self._action(p)[0] for p in (plan, other)]).clause_set,
                self._query(plan.agent, [self._reasons(p) for p in (plan, other)]).clause_set)

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
                                   (self._reasons(p) for p in (plan, other)))
        if reasons is None:
            return PrincipleVerdict(
                AUTONOMY, INDETERMINATE,
                BudgetNote(f"decision budget exhausted checking {plan.id} against {other.id}"),
            )
        if isinstance(reasons, QueryConflict):
            return PrincipleVerdict(AUTONOMY, PASS, ReasonsContradiction(other.id, reasons))
        return PrincipleVerdict(AUTONOMY, FAIL, PlanInterference(other.id, actions, reasons))


# --------------------------------------------------------------------------
# The utility check, which decides no query


def check_utility(
    plan: ActionPlan,
    context: CandidateSet | None,
    scenario: Scenario,
    eligible: frozenset[tuple[str, Atom]],
) -> PrincipleVerdict:
    """Does the action carry at least as much utility as every alternative
    in `eligible`, the round's (context, action) candidates still in the
    clear, under the plan's `plan_context`, `context`? The believability
    wrapper collapses to a point comparison on the scenario's expected
    utilities; a missing utility entry is a configuration error, not a fail."""
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


def _withdrawn(plan: ActionPlan, context: CandidateSet | None) -> tuple[str, Atom] | None:
    """The candidate `plan` carries, which leaves utility comparison while
    the plan is unprotected; None if it carries none."""
    if context is None or plan.action.negated:
        return None
    return context.context, plan.instantiated_action().atom


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

    Each round keeps the verdicts it computes, and the last round's are the
    result. A plan's generalization verdict is asked once, in round 1, and
    its utility verdict is recomputed each round from the round's eligible
    candidates, all but those that unprotected plans carry (`_withdrawn`).
    Its autonomy verdict comes from a scan of its protected partners, the
    plans of other agents, in plan order: the first failing pair's verdict
    decides, else the first indeterminate one's. The scan decides a pair on
    first reach, keeping its verdict for later rounds, and stops at the
    first failing one, so the rounds decide the same queries, in the same
    order, as rounds that check every plan in full. A plan whose last scan
    found no failing or indeterminate pair passes autonomy with the
    evidence of each protected partner's pair, every one reached by that
    scan (`AutonomyClear`), or with a `Note` if it has no protected partner.
    """
    plans = scenario.plans
    compiler = QueryCompiler(scenario, budget)
    contexts = [plan_context(scenario, p) for p in plans]
    withdrawn = [_withdrawn(p, ctx) for p, ctx in zip(plans, contexts)]
    candidates = frozenset((cs.context, act) for cs in scenario.candidates for act in cs.actions)
    # Each plan's partners, the plans of other agents, by index in plan
    # order, and the verdicts of its decided pairs, by partner index.
    partners = [[j for j, other in enumerate(plans) if other.agent != plan.agent] for plan in plans]
    decided: list[dict[int, PrincipleVerdict]] = [{} for _ in plans]
    generalization: list[PrincipleVerdict] = []
    # Each plan's utility verdict and deciding pair verdict, or None, in the round.
    kept: list[tuple[PrincipleVerdict, PrincipleVerdict | None]] = []
    assumed = [ETHICAL] * len(plans)
    statuses = last_in = assumed
    max_rounds = len(plans) + 1
    rounds = 0
    stable = False

    while rounds < max_rounds:
        rounds += 1
        protected = {i for i, status in enumerate(assumed) if status != UNETHICAL}
        eligible = candidates - {w for i, w in enumerate(withdrawn) if i not in protected}
        statuses, kept = [], []
        for i, plan in enumerate(plans):
            if rounds == 1:
                generalization.append(compiler.check_generalization(plan))
            pairs = decided[i]
            autonomy = None
            for j in partners[i]:
                if j not in protected:
                    continue
                verdict = pairs.get(j)
                if verdict is None:
                    verdict = pairs[j] = compiler.check_autonomy_pair(plan, plans[j])
                if verdict.status == FAIL:
                    autonomy = verdict
                    break
                if verdict.status == INDETERMINATE and autonomy is None:
                    autonomy = verdict
            utility = check_utility(plan, contexts[i], scenario, eligible)
            kept.append((utility, autonomy))

            checks = (
                generalization[i].status,
                utility.status,
                PASS if autonomy is None else autonomy.status,
            )
            if FAIL in checks:
                statuses.append(UNETHICAL)
            elif checks == (PASS, PASS, PASS):
                statuses.append(ETHICAL)
            else:
                statuses.append(INDETERMINATE)
        if statuses == assumed:
            stable = True
            break
        last_in, assumed = assumed, statuses

    if not stable:
        statuses = [
            INDETERMINATE if status != before else status
            for status, before in zip(statuses, last_in)
        ]
    verdicts = []
    for i, (plan, (utility, autonomy)) in enumerate(zip(plans, kept)):
        if autonomy is None:
            clear = tuple((plans[j].id, decided[i][j].evidence)
                          for j in partners[i] if j in protected)
            autonomy = PrincipleVerdict(AUTONOMY, PASS, AutonomyClear(clear) if clear else Note(
                "no protected plans of other agents to conflict with"
            ))
        verdicts.append(PlanVerdict(plan.id, (generalization[i], utility, autonomy), statuses[i]))
    return VerdictSet(scenario.name, tuple(verdicts), rounds, stable,
                      tuple(compiler.queries.values()))
