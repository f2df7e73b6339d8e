"""Deciding whether declared action plans hold up as generalizable,
utility-maximal and autonomy-respecting over finite scenarios.

The pieces: `logic` (formulas, grounding, clause form), `scenario` (the
data model and validation), `dsl` (the `.deon` text format), `sat` (the
satisfiability engine), `principles` (the three checks and the fixpoint
verdict engine) and `cli` (the command-line surface).
"""

from .logic import (
    AGENT,
    OBJECT,
    And,
    Atom,
    AtomF,
    ClauseBuilder,
    ForAll,
    Formula,
    GroundClauseSet,
    GroundingError,
    Implies,
    LogicError,
    Not,
    Or,
    SignedAtom,
    Term,
    TRUE,
    agent_const,
    agent_var,
    evaluate_formula,
    ground,
    object_const,
    object_var,
    to_clauses,
    universalization_trigger,
)
from .sat import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    ConflictExplanation,
    Model,
    SatResult,
    brute_force,
    solve,
)
from .scenario import (
    ActionPlan,
    CandidateSet,
    ConstraintBase,
    Diagnostic,
    PredicateDecl,
    Scenario,
    ScenarioError,
    UniversalizationEffect,
    UtilityTable,
    belief_theory,
    effects_for,
    plan_context,
    validate,
)
from .dsl import (
    ParseDiagnostic,
    ParseResult,
    SourceSpan,
    format_formula,
    parse_scenario,
    print_scenario,
)
from .principles import (
    AUTONOMY,
    ETHICAL,
    FAIL,
    GENERALIZATION,
    INDETERMINATE,
    PASS,
    UNETHICAL,
    UTILITY,
    ModalQuery,
    PlanVerdict,
    PrincipleVerdict,
    QueryCompiler,
    VerdictSet,
    can_rationally_believe_possible,
    check_utility,
    evaluate,
    rationally_required_to_deny_possible,
)
from .cli import render_human, render_structured

__version__ = "0.1.0"
