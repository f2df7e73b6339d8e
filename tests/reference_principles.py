"""The verdict engine as it was before its per-evaluation memo, kept as an oracle.

`deon.principles.evaluate` decides each plan's generalization query and
each autonomy pair once per evaluation, from queries solved in place
against compiled theory fragments, and reuses those verdicts in later
rounds.
These functions are its checks and fixpoint loop as they were before the
memo: every round checks every plan afresh, each query is built from
scratch by `reference_logic` and solved by `reference_sat.solve`, and no
state is kept between checks, rounds or calls. They return the
`deon.principles` verdict and evidence dataclasses, so the CLI's renderers
can print both results and a test can compare the bytes.

The utility check decides no query, so the oracle uses the engine's
`check_utility`. It computes each round's eligible candidates itself
(`eligible_candidates`), apart from the engine's rounds.
"""

from __future__ import annotations

import dataclasses

import reference_logic
import reference_sat

from deon.principles import (
    AUTONOMY,
    ETHICAL,
    FAIL,
    GENERALIZATION,
    INDETERMINATE,
    PASS,
    UNETHICAL,
    AutonomyClear,
    BudgetNote,
    Note,
    PlanInterference,
    PlanVerdict,
    PrincipleVerdict,
    QueryConflict,
    ReasonsContradiction,
    VerdictSet,
    Witness,
    check_utility,
)
from deon.sat import DEFAULT_BUDGET, BudgetExhausted
from deon.scenario import ActionPlan, Scenario, ScenarioError, plan_context


def _decide(cs, budget: int) -> Witness | QueryConflict | None:
    """The evidence for one query, or None when the budget ran out. The query
    is a reference `GroundClauseSet`, which prints as the engine's
    `TheoryQuery` does."""
    try:
        result = reference_sat.solve(cs, budget)
    except BudgetExhausted:
        return None
    if result.satisfiable:
        return Witness(cs, result.model)
    return QueryConflict(cs, result.conflict)


def check_generalization(plan: ActionPlan, scenario: Scenario, budget: int) -> PrincipleVerdict:
    evidence = _decide(reference_logic.generalization_query(plan, scenario), budget)
    if evidence is None:
        return PrincipleVerdict(
            GENERALIZATION, INDETERMINATE,
            BudgetNote(f"decision budget exhausted on the generalization query for {plan.id}"),
        )
    status = PASS if isinstance(evidence, Witness) else FAIL
    return PrincipleVerdict(GENERALIZATION, status, evidence)


def check_autonomy_pair(
    plan: ActionPlan, other: ActionPlan, scenario: Scenario, budget: int
) -> PrincipleVerdict:
    """The actions query first; the reasons query only when it is unsatisfiable."""
    if plan.agent == other.agent:
        raise ScenarioError("autonomy is checked between plans of distinct agents")
    actions_cs, reasons_cs = reference_logic.autonomy_pair_queries(plan, other, scenario)
    actions = _decide(actions_cs, budget)
    if isinstance(actions, Witness):
        return PrincipleVerdict(AUTONOMY, PASS, actions)
    reasons = None if actions is None else _decide(reasons_cs, budget)
    if reasons is None:
        return PrincipleVerdict(
            AUTONOMY, INDETERMINATE,
            BudgetNote(f"decision budget exhausted checking {plan.id} against {other.id}"),
        )
    if isinstance(reasons, QueryConflict):
        return PrincipleVerdict(AUTONOMY, PASS, ReasonsContradiction(other.id, reasons))
    return PrincipleVerdict(AUTONOMY, FAIL, PlanInterference(other.id, actions, reasons))


def check_autonomy(
    plan: ActionPlan, scenario: Scenario, protected: frozenset[str], budget: int
) -> PrincipleVerdict:
    """`plan` against every protected plan of every other agent, in declaration order."""
    pairs: list[tuple[str, object]] = []
    indeterminate: PrincipleVerdict | None = None
    for other in scenario.plans:
        if other.agent == plan.agent or other.id not in protected:
            continue
        verdict = check_autonomy_pair(plan, other, scenario, budget)
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


def eligible_candidates(scenario: Scenario, protected: frozenset[str]) -> frozenset:
    """Every declared (context, action) candidate, minus the context and
    action of each unprotected plan that has a context and a plain action."""
    dropped = set()
    for plan in scenario.plans:
        context = plan_context(scenario, plan)
        if plan.id not in protected and context is not None and not plan.action.negated:
            dropped.add((context.context, plan.instantiated_action().atom))
    return frozenset(
        (cs.context, act) for cs in scenario.candidates for act in cs.actions
    ) - dropped


def check_plan(
    plan: ActionPlan,
    scenario: Scenario,
    protected: frozenset[str],
    eligible: frozenset,
    budget: int,
) -> PlanVerdict:
    checks = (
        check_generalization(plan, scenario, budget),
        check_utility(plan, plan_context(scenario, plan), scenario, eligible),
        check_autonomy(plan, scenario, protected, budget),
    )
    if any(c.status == FAIL for c in checks):
        overall = UNETHICAL
    elif all(c.status == PASS for c in checks):
        overall = ETHICAL
    else:
        overall = INDETERMINATE
    return PlanVerdict(plan.id, checks, overall)


def evaluate(scenario: Scenario, budget: int = DEFAULT_BUDGET) -> VerdictSet:
    """All three checks on every plan, every round, to a fixpoint.

    Every plan starts in the clear. A round protects the plans that the
    previous round left ethical or indeterminate. The loop stops when two
    rounds agree or after len(plans)+1 rounds; plans still flipping then are
    reported indeterminate, with the stability flag false.
    """
    plans = scenario.plans
    assumed = {p.id: ETHICAL for p in plans}
    max_rounds = len(plans) + 1
    rounds = 0
    stable = False
    current: list[PlanVerdict] = []
    statuses: dict[str, str] = dict(assumed)
    last_in: dict[str, str] = dict(assumed)

    while rounds < max_rounds:
        rounds += 1
        protected = frozenset(
            pid for pid, status in assumed.items() if status in (ETHICAL, INDETERMINATE)
        )
        eligible = eligible_candidates(scenario, protected)
        current = [check_plan(p, scenario, protected, eligible, budget) for p in plans]
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

    return VerdictSet(scenario.name, tuple(current), rounds, stable)
