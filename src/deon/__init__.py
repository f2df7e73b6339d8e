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
    ground,
    object_const,
    object_var,
    universalization_trigger,
)
from .sat import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    ConflictExplanation,
    Model,
    SatResult,
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

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    # `deon.cli` is imported on first use, not here: `python3 -m deon.cli`
    # would otherwise find it imported before it runs as `__main__`.
    if name in ("render_human", "render_structured"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
