"""Parser and canonical printer for the scenario text format.

The format is a keyword-introduced block grammar (suggested extension
`.deon`): `agents`, `objects`, `predicates`, `plan`, `physics`, `belief`,
`on_universalized`, `candidates` and `utility` sections, with `#` comments
and `not`/`and`/`or`/`->`/`forall x.` formulas. Declarations must precede
use. Modal operators have no surface syntax: the checker decides every modal
question as a satisfiability query, so authors never write one.

Parsing is one pass: formulas are built as `logic` formulas while they are
read. A quantified variable takes the declared sort of the argument
positions it fills; `forall x.` is accepted only when that is exactly one
sort. Every name resolves in one place: the parser keeps one table of the
declared agent and object constants and one scope of variables, and a name
is the innermost variable in scope that has it, else its constant. The rules
that `validate` checks too, `declare_constant` and `atom_findings`, live in
`scenario`; the parser reports their findings at the token, coded by rule.
Parsing is a pure function of the input text and never raises on malformed
input; failures come back as diagnostics with source spans.

Error recovery has one rule: a syntax error abandons the section it is in,
and parsing resumes at the next section keyword, so the faults of later
sections are still reported and each fault is reported once, at its token.
A name position that meets a section keyword reports it and leaves it to
recovery, so a trailing comma does not swallow the next section. A reserved
word is reported and taken as the name, and no name finding is made at it.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, NoReturn, TypeVar

from .logic import (
    AGENT,
    OBJECT,
    And,
    Atom,
    AtomF,
    ForAll,
    Formula,
    Implies,
    Not,
    Or,
    SignedAtom,
    Term,
    agent_const,
    agent_var,
    object_var,
)
from .scenario import (
    ActionPlan,
    CandidateSet,
    ConstraintBase,
    Finding,
    PredicateDecl,
    Scenario,
    UniversalizationEffect,
    UtilityTable,
    atom_findings,
    declare_constant,
    validate,
)

DEFAULT_MAX_SOURCE = 1_000_000
# Longer number literals are rejected: CPython converts at most 4300 digits
# between text and int, and this bounds every numerator and denominator printed.
MAX_NUMBER_LENGTH = 4_300
MAX_FORMULA_DEPTH = 100

SECTION_KEYWORDS = (
    "scenario",
    "agents",
    "objects",
    "predicates",
    "plan",
    "physics",
    "belief",
    "on_universalized",
    "utility",
    "candidates",
)

KEYWORDS = frozenset(
    SECTION_KEYWORDS
    + ("agent", "object", "forall", "reasons", "action", "given", "not", "and", "or")
)
_SECTIONS = frozenset(SECTION_KEYWORDS)

_T = TypeVar("_T")

# The parser's code for each name finding, by its `validate` rule name.
_RULE_CODES = {
    **dict.fromkeys(("duplicate", "name-clash"), "duplicate"),
    **dict.fromkeys(("arity-mismatch", "kind-mismatch"), "kind"),
    **dict.fromkeys(("unknown-predicate", "unknown-constant", "unknown-agent", "unknown-plan",
                     "unknown-context"), "unknown-ref"),
}

# Blanks and comments match no named group; every other character matches
# exactly one, with BAD taking any character the format has no use for.
_TOKEN_RE = re.compile(
    r"[ \t\r]+|#[^\n]*"
    r"|(?P<NEWLINE>\n)"
    r"|(?P<ARROW>->)"
    r"|(?P<NUMBER>-?[0-9]+(?:\.[0-9]+|/[0-9]+)?)"
    r"|(?P<IDENT>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<PUNCT>[{}(),;:.=])"
    r"|(?P<BAD>.)"
)

_PUNCT = {
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ";": "SEMI",
    ":": "COLON",
    ".": "DOT",
    "=": "EQUALS",
}


@dataclass(frozen=True)
class SourceSpan:
    """A location in the source text; line and column are 1-based."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    message: str
    code: str  # "lex" | "syntax" | "duplicate" | "unknown-ref" | "kind" | "limit" | "validation"
    expected: tuple[str, ...] = ()

    severity = "error"  # every diagnostic rejects the input

    def __str__(self) -> str:
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.span}: {self.severity}: {self.message}{hint} [{self.code}]"


@dataclass
class ParseResult:
    scenario: Scenario | None
    diagnostics: list[ParseDiagnostic]

    @property
    def ok(self) -> bool:
        return self.scenario is not None


class _Token(NamedTuple):
    kind: str  # IDENT NUMBER ARROW EOF or a _PUNCT name
    text: str
    line: int
    column: int

    def span(self, filename: str) -> SourceSpan:
        return SourceSpan(filename, self.line, self.column)


def _lex(text: str, filename: str) -> tuple[list[_Token], list[ParseDiagnostic]]:
    tokens: list[_Token] = []
    diagnostics: list[ParseDiagnostic] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        col = m.start() - line_start + 1
        if kind == "BAD":
            diagnostics.append(ParseDiagnostic(
                SourceSpan(filename, line, col),
                f"unexpected character {m.group()!r}", "lex",
            ))
        else:
            token_kind = _PUNCT[m.group()] if kind == "PUNCT" else kind
            tokens.append(_Token(token_kind, m.group(), line, col))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens, diagnostics


class _Abandon(Exception):
    """Raised at a syntax error to abandon the current section.

    `_Parser.parse` catches it around the header and each section and skips
    to the next section keyword. One site reports and carries on instead: "a
    plan has exactly one action" is found after the plan's `}`, where
    skipping would lose the next section.
    """


class _Parser:
    def __init__(self, tokens: list[_Token], filename: str):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0
        self.diagnostics: list[ParseDiagnostic] = []

        self.scenario_name = ""
        # Every declared agent and object constant, in declaration order.
        self.constants: dict[str, Term] = {}
        self.predicates: dict[str, PredicateDecl] = {}
        self.plans: dict[str, ActionPlan] = {}
        self.physical: list[tuple[Formula, SourceSpan]] = []
        self.beliefs: dict[Term, tuple[tuple[Formula, SourceSpan], ...]] = {}
        self.effects: list[UniversalizationEffect] = []
        self.utilities: dict[tuple[str, Atom], Fraction] = {}
        self.utility_spans: dict[tuple[str, Atom], SourceSpan] = {}
        self.candidates: dict[str, CandidateSet] = {}

        # Name-resolution findings go here; inside a formula, to a list that
        # is reported once the formula's `;` has been read.
        self.findings = self.diagnostics
        # The variables in scope, innermost last. A plan binds its object
        # variables and its agent placeholder, each to its term; a formula
        # binds each quantified variable to the sorts of the argument
        # positions it has filled.
        self.scope: list[tuple[str, Term | set[str]]] = []
        self.quantifier_failed = False

    # -- token helpers ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def at_keyword(self, *names: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text in names

    def error(self, message: str, tok: _Token | None = None, code: str = "syntax",
              expected: tuple[str, ...] = ()) -> None:
        tok = tok or self.peek()
        self.diagnostics.append(
            ParseDiagnostic(tok.span(self.filename), message, code, expected)
        )

    def finding(self, tok: _Token, finding: Finding) -> None:
        """Report a name finding at `tok`, unless `need_name` reported it as reserved."""
        rule, message = finding
        if tok.text not in KEYWORDS:
            span = tok.span(self.filename)
            self.findings.append(ParseDiagnostic(span, message, _RULE_CODES[rule]))

    def fail(self, message: str, expected: tuple[str, ...]) -> NoReturn:
        """Report a syntax error at the next token and abandon the section."""
        self.error(message, expected=expected)
        raise _Abandon

    def found(self) -> str:
        return repr(self.peek().text or "end of input")

    def need(self, kind: str, what: str, text: str | None = None) -> _Token:
        """The next token if it is the one wanted; else report it and abandon."""
        if self.at(kind, text):
            return self.advance()
        self.fail(f"expected {what}, found {self.found()}", (what,))

    def need_name(self, what: str) -> _Token:
        """The next token if it is a name; else report it and abandon.

        A reserved word is reported and taken as the name, which consumes it.
        A section keyword is left for `sync_to_section` to resume at.
        """
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text not in _SECTIONS:
            if tok.text in KEYWORDS:
                article = "an" if what[0] in "aeiou" else "a"
                self.error(f"{tok.text!r} is a reserved word and cannot name {article} {what}")
            return self.advance()
        self.fail(f"expected {what} name, found {self.found()}", (what,))

    def _comma_list(self, item: Callable[[], _T]) -> Iterator[_T]:
        """`item`, and again after each `,`; each is yielded as soon as it is read.

        The caller's loop body runs before the next `,` is looked for, so
        what it does with the items read before a fault stays done.
        """
        yield item()
        while self.at("COMMA"):
            self.advance()
            yield item()

    def sync_to_section(self) -> None:
        """Error recovery: skip forward to the next top-level section keyword.

        It may stay put, so a fault found at a section keyword loses no
        section. Parsing still makes progress: every section handler consumes
        its keyword before any `need_name` can stop at the next one, the
        duplicate header branch of `parse` consumes its `scenario`, this scan
        consumes a token that is no section keyword, and the header, which
        can abandon at a section keyword without consuming it, is read once,
        outside the section loop.
        """
        while not self.at("EOF") and self.peek().text not in _SECTIONS:
            self.advance()

    # -- top level ----------------------------------------------------------

    def parse(self) -> None:
        try:
            if not self.at_keyword("scenario"):
                self.fail("expected scenario header", ())
            self.advance()
            self.scenario_name = self.need_name("scenario").text
        except _Abandon:
            self.sync_to_section()
        while not self.at("EOF"):
            tok = self.peek()
            self.scope.clear()
            try:
                if tok.text not in _SECTIONS:
                    self.fail(f"expected a section keyword, found {self.found()}",
                              SECTION_KEYWORDS)
                if tok.text == "scenario":
                    self.advance()
                    # A name position that stopped at this keyword may have reported it.
                    if tok.span(self.filename) not in [d.span for d in self.diagnostics[-1:]]:
                        self.error("duplicate scenario header", tok, code="duplicate")
                    raise _Abandon
                getattr(self, f"_section_{tok.text}")()
            except _Abandon:
                self.sync_to_section()

    # -- sections -----------------------------------------------------------

    def _section_agents(self) -> None:
        self._declare_constants(AGENT)

    def _section_objects(self) -> None:
        self._declare_constants(OBJECT)

    def _declare_constants(self, sort: str) -> None:
        self.advance()
        for tok in self._comma_list(lambda: self.need_name(sort)):
            if finding := declare_constant(self.constants, tok.text, sort):
                self.finding(tok, finding)

    def _section_predicates(self) -> None:
        self.advance()
        for _ in self._comma_list(self._predicate_decl):
            pass

    def _predicate_decl(self) -> None:
        tok = self.need_name("predicate")
        self.need("LPAREN", "'('")
        sorts = () if self.at("RPAREN") else tuple(self._comma_list(self._sort))
        self.need("RPAREN", "')'")
        is_action = False
        if self.at_keyword("action"):
            self.advance()
            is_action = True
        if tok.text in self.predicates:
            self.error(f"predicate {tok.text} declared more than once", tok, code="duplicate")
            return
        self.predicates[tok.text] = PredicateDecl(
            tok.text, sorts, is_action, span=tok.span(self.filename)
        )

    def _sort(self) -> str:
        if self.at_keyword(AGENT, OBJECT):
            return self.advance().text
        self.fail("expected 'agent' or 'object'", (AGENT, OBJECT))

    def _section_plan(self) -> None:
        start = self.advance()
        id_tok = self.need_name("plan")
        self.need("IDENT", "'agent'", text="agent")
        agent_tok = self.need_name("agent")
        agent = self._agent(agent_tok)
        object_vars: list[Term] = []
        if self.at_keyword("forall"):
            self.advance()
            for tok in self._comma_list(lambda: self.need_name("object variable")):
                if tok.text in self.constants:
                    self.error(
                        f"object variable {tok.text} clashes with a declared constant",
                        tok, code="duplicate",
                    )
                object_vars.append(object_var(tok.text))
        self.need("COLON", "':'")
        # Bound last, the agent placeholder wins a clash with an object variable.
        self.scope.extend((var.name, var) for var in object_vars)
        self.scope.append((agent_tok.text, agent_var(agent_tok.text)))
        self.need("IDENT", "'reasons'", text="reasons")
        reasons = self._literal_list_block()
        self.need("IDENT", "'action'", text="action")
        action_list = self._literal_list_block()
        if len(action_list) != 1:
            self.error("a plan has exactly one action", start)
            return
        action = action_list[0]
        decl = self.predicates.get(action.atom.predicate)
        if decl is not None and not decl.is_action:
            self.error(
                f"predicate {action.atom.predicate} is not declared as an action",
                start, code="kind",
            )
        if id_tok.text in self.plans:
            self.error(f"plan id {id_tok.text} declared more than once", id_tok, code="duplicate")
            return
        self.plans[id_tok.text] = ActionPlan(
            id=id_tok.text,
            agent=agent,
            reasons=tuple(reasons),
            action=action,
            object_vars=tuple(object_vars),
            span=start.span(self.filename),
        )

    def _agent(self, tok: _Token) -> Term:
        """The declared agent constant the name stands for."""
        constant = self.constants.get(tok.text)
        if constant is None or constant.sort != AGENT:
            self.finding(tok, ("unknown-agent", f"unknown agent {tok.text}"))
            return agent_const(tok.text)  # recovery value; the parse already failed
        return constant

    def _term(self, tok: _Token, sort: str | None) -> Term:
        """The term a name stands for: the innermost variable in scope, else a constant.

        `sort` is the declared sort of the name's argument position, None for
        an unknown predicate or an extra argument. A formula variable takes
        that sort; a plan's variables keep their own.
        """
        name = tok.text
        for var, binding in reversed(self.scope):
            if var != name:
                continue
            if isinstance(binding, Term):
                return binding
            if sort is None:  # already an error
                return Term(AGENT, name, is_var=True)
            binding.add(sort)
            return Term(sort, name, is_var=True)
        constant = self.constants.get(name)
        if constant is None:
            self.finding(tok, ("unknown-constant", f"unknown agent or object {name}"))
            return agent_const(name)  # recovery value; the parse already failed
        return constant

    def _literal_list_block(self) -> list[SignedAtom]:
        self.need("LBRACE", "'{'")
        literals = list(self._comma_list(self._literal))
        self.need("RBRACE", "',' or '}'")
        return literals

    def _literal(self) -> SignedAtom:
        negated = self.at_keyword("not")
        if negated:
            self.advance()
        return SignedAtom(self._atom(), negated)

    def _atom(self) -> Atom:
        """A predicate applied to terms; each term resolves with its position's declared sort."""
        tok = self.need_name("predicate")
        decl = self.predicates.get(tok.text)
        sorts = decl.arg_sorts if decl is not None else ()
        args: list[Term] = []
        if self.at("LPAREN"):
            self.advance()
            if not self.at("RPAREN"):
                for arg in self._comma_list(lambda: self.need_name("term")):
                    sort = sorts[len(args)] if len(args) < len(sorts) else None
                    args.append(self._term(arg, sort))
            self.need("RPAREN", "',' or ')'")
        atom = Atom(tok.text, tuple(args))
        for finding in atom_findings(atom, self.predicates):
            self.finding(tok, finding)
        return atom

    def _section_physics(self) -> None:
        self.advance()
        self.physical.extend(self._formula_block())

    def _section_belief(self) -> None:
        self.advance()
        agent = self._agent(self.need_name("agent"))
        formulas = self._formula_block()
        if formulas or agent in self.beliefs:
            self.beliefs[agent] = self.beliefs.get(agent, ()) + tuple(formulas)

    def _section_on_universalized(self) -> None:
        start = self.advance()
        plan_tok = self.need_name("plan")
        if plan_tok.text not in self.plans:
            self.finding(plan_tok, ("unknown-plan", f"unknown plan {plan_tok.text}"))
        for f, _ in self._formula_block():
            self.effects.append(
                UniversalizationEffect(plan_tok.text, f, span=start.span(self.filename))
            )

    def _section_utility(self) -> None:
        self.advance()
        ctx_tok = self.need_name("context")
        if ctx_tok.text not in self.candidates:
            self.finding(ctx_tok, ("unknown-context", f"unknown candidate context {ctx_tok.text}"))
        self.need("LBRACE", "'{'")
        while not self.at("RBRACE") and not self.at("EOF"):
            entry = self.peek()
            atom = self._atom()
            self.need("EQUALS", "'='")
            num = self.need("NUMBER", "a number")
            self.need("SEMI", "';'")
            key = (ctx_tok.text, atom)
            _, slash, denominator = num.text.partition("/")
            if len(num.text) > MAX_NUMBER_LENGTH:
                self.error(f"number literal of {len(num.text)} characters exceeds the "
                           f"{MAX_NUMBER_LENGTH} limit", num, code="limit")
            elif slash and int(denominator) == 0:
                self.error(f"number literal {num.text} has a zero denominator", num)
            elif key in self.utilities:
                self.error(f"duplicate utility entry for {atom}", num, code="duplicate")
            else:
                self.utilities[key] = Fraction(num.text)
                self.utility_spans[key] = entry.span(self.filename)
        self.need("RBRACE", "'}'")

    def _section_candidates(self) -> None:
        start = self.advance()
        ctx_tok = self.need_name("context")
        self.need("IDENT", "'given'", text="given")
        condition = self._literal_list_block()
        self.need("LBRACE", "'{'")
        actions = list(self._comma_list(self._atom))
        self.need("RBRACE", "',' or '}'")
        if ctx_tok.text in self.candidates:
            self.error(f"candidate context {ctx_tok.text} declared more than once",
                       ctx_tok, code="duplicate")
            return
        self.candidates[ctx_tok.text] = CandidateSet(
            context=ctx_tok.text,
            condition=tuple(condition),
            actions=tuple(actions),
            span=start.span(self.filename),
        )

    # -- formulas -----------------------------------------------------------

    def _formula_block(self) -> list[tuple[Formula, SourceSpan]]:
        """The formulas of a `{ f; ... }` block, each with the span of its first token.

        A formula's name-resolution findings are reported after its `;`, and
        dropped if it fails to parse. A quantifier whose variable gets no
        sort, or two, is no syntax error: its formula is read to the `;` and
        reported, then the section is abandoned.
        """
        self.need("LBRACE", "'{'")
        formulas: list[tuple[Formula, SourceSpan]] = []
        while not self.at("RBRACE") and not self.at("EOF"):
            span = self.peek().span(self.filename)
            pending: list[ParseDiagnostic] = []
            self.findings, self.quantifier_failed = pending, False
            try:
                formula = self._formula(0)
            finally:
                self.findings = self.diagnostics
            self.need("SEMI", "';'")
            self.diagnostics.extend(pending)
            if self.quantifier_failed:
                raise _Abandon
            formulas.append((formula, span))
        self.need("RBRACE", "'}'")
        return formulas

    def _formula(self, depth: int) -> Formula:
        if depth > MAX_FORMULA_DEPTH:
            self.error("formula nesting too deep", code="limit")
            raise _Abandon
        if not self.at_keyword("forall"):
            return self._implication(depth)
        self.advance()
        var_tok = self.need_name("variable")
        self.need("DOT", "'.'")
        mark = len(self.findings)
        sorts: set[str] = set()
        self.scope.append((var_tok.text, sorts))
        body = self._formula(depth + 1)
        self.scope.pop()
        if len(sorts) == 1:
            return ForAll(Term(sorts.pop(), var_tok.text, is_var=True), body)
        self.quantifier_failed = True
        del self.findings[mark:]  # a failed quantifier reports itself, not its body
        name = var_tok.text
        message = (
            f"variable {name} is used in both agent and object positions" if sorts
            else f"cannot infer the domain of variable {name}: it is never used"
        )
        self.findings.append(
            ParseDiagnostic(var_tok.span(self.filename), message, "kind")
        )
        return body

    def _implication(self, depth: int) -> Formula:
        left = self._disjunction(depth)
        if not self.at("ARROW"):
            return left
        self.advance()
        return Implies(left, self._implication(depth + 1))

    def _disjunction(self, depth: int) -> Formula:
        parts = [self._conjunction(depth)]
        while self.at_keyword("or"):
            self.advance()
            parts.append(self._conjunction(depth))
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def _conjunction(self, depth: int) -> Formula:
        parts = [self._unary(depth)]
        while self.at_keyword("and"):
            self.advance()
            parts.append(self._unary(depth))
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _unary(self, depth: int) -> Formula:
        if depth > MAX_FORMULA_DEPTH:
            self.error("formula nesting too deep", code="limit")
            raise _Abandon
        if self.at_keyword("not"):
            self.advance()
            return Not(self._unary(depth + 1))
        if self.at("LPAREN"):
            self.advance()
            inner = self._formula(depth + 1)
            self.need("RPAREN", "')'")
            return inner
        if self.at_keyword("forall"):
            return self._formula(depth)  # quantifier directly under a connective
        return AtomF(self._atom())

    # -- result -------------------------------------------------------------

    def build(self) -> Scenario:
        return Scenario(
            name=self.scenario_name,
            agents=tuple(t for t in self.constants.values() if t.sort == AGENT),
            objects=tuple(t for t in self.constants.values() if t.sort == OBJECT),
            predicates=tuple(self.predicates.values()),
            plans=tuple(self.plans.values()),
            constraints=ConstraintBase(
                tuple(f for f, _ in self.physical),
                {agent: tuple(f for f, _ in fs) for agent, fs in self.beliefs.items()},
                tuple(span for _, span in self.physical),
                {agent: tuple(span for _, span in fs) for agent, fs in self.beliefs.items()},
            ),
            effects=tuple(self.effects),
            utilities=UtilityTable(dict(self.utilities), dict(self.utility_spans)),
            candidates=tuple(self.candidates.values()),
        )


def parse_scenario(
    text: str,
    filename: str = "<input>",
    max_size: int = DEFAULT_MAX_SOURCE,
) -> ParseResult:
    """Parse scenario source into a validated Scenario, or diagnostics.

    Success implies the scenario passes `validate` with no findings. Never
    raises on malformed input; the input is rejected above `max_size`.
    """
    if len(text) > max_size:
        return ParseResult(None, [
            ParseDiagnostic(SourceSpan(filename, 1, 1),
                            f"input of {len(text)} characters exceeds the {max_size} limit",
                            "limit")
        ])
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    tokens, diagnostics = _lex(text, filename)
    parser = _Parser(tokens, filename)
    parser.parse()
    diagnostics.extend(parser.diagnostics)
    if diagnostics:
        return ParseResult(None, diagnostics)
    scenario = parser.build()
    start = SourceSpan(filename, 1, 1)
    for finding in validate(scenario):
        diagnostics.append(ParseDiagnostic(finding.span or start, str(finding), "validation"))
    return ParseResult(None if diagnostics else scenario, diagnostics)


# --------------------------------------------------------------------------
# Printing


#: How tightly each node binds; a part that binds less tightly than its
#: place asks for is parenthesized.
_LEVEL = {ForAll: 0, Implies: 1, Or: 2, And: 3, Not: 4, AtomF: 5}


def format_formula(f: Formula, min_level: int = 0) -> str:
    """Source syntax for a formula, minimal parentheses."""
    level = _LEVEL.get(type(f))
    if level is None:
        raise ValueError(f"{type(f).__name__} nodes have no source syntax")
    if level < min_level:
        return f"({format_formula(f, 0)})"
    if isinstance(f, ForAll):
        return f"forall {f.var.name}. {format_formula(f.body, 0)}"
    if isinstance(f, Implies):
        left = format_formula(f.antecedent, level + 1)
        return f"{left} -> {format_formula(f.consequent, level)}"
    if isinstance(f, Or):
        if len(f.parts) < 2:
            raise ValueError("degenerate disjunction has no source syntax")
        return " or ".join(format_formula(p, level + 1) for p in f.parts)
    if isinstance(f, And):
        if len(f.parts) < 2:
            raise ValueError("degenerate conjunction has no source syntax")
        return " and ".join(format_formula(p, level + 1) for p in f.parts)
    if isinstance(f, Not):
        return f"not {format_formula(f.body, level)}"
    return str(f.atom)


def print_scenario(scenario: Scenario) -> str:
    """Canonical source text; re-parsing yields a structurally equal Scenario."""
    blocks: list[str] = [f"scenario {scenario.name}"]

    if scenario.agents:
        blocks.append("agents " + ", ".join(a.name for a in scenario.agents))
    if scenario.objects:
        blocks.append("objects " + ", ".join(o.name for o in scenario.objects))

    if scenario.predicates:
        decls = []
        for p in scenario.predicates:
            flag = " action" if p.is_action else ""
            decls.append(f"  {p.name}({', '.join(p.arg_sorts)}){flag}")
        blocks.append("predicates\n" + ",\n".join(decls))

    for plan in scenario.plans:
        header = f"plan {plan.id} agent {plan.agent.name}"
        if plan.object_vars:
            header += " forall " + ", ".join(v.name for v in plan.object_vars)
        reasons = ", ".join(str(r) for r in plan.reasons)
        blocks.append(
            f"{header}:\n  reasons {{ {reasons} }}\n  action {{ {plan.action} }}"
        )

    if scenario.constraints.physical:
        body = "\n".join(f"  {format_formula(f)};" for f in scenario.constraints.physical)
        blocks.append("physics {\n" + body + "\n}")

    for agent, formulas in scenario.constraints.beliefs.items():
        if not formulas:
            continue
        body = "\n".join(f"  {format_formula(f)};" for f in formulas)
        blocks.append(f"belief {agent} {{\n{body}\n}}")

    for effect in scenario.effects:
        body = f"  {format_formula(effect.consequence)};"
        blocks.append(f"on_universalized {effect.plan_id} {{\n{body}\n}}")

    for cs in scenario.candidates:
        condition = ", ".join(str(sa) for sa in cs.condition)
        actions = ", ".join(str(a) for a in cs.actions)
        blocks.append(f"candidates {cs.context} given {{ {condition} }} {{ {actions} }}")

    by_context: dict[str, list[tuple[Atom, Fraction]]] = {}
    for (context, atom), value in scenario.utilities.entries.items():
        by_context.setdefault(context, []).append((atom, value))
    for context, entries in by_context.items():
        body = "\n".join(f"  {atom} = {format_number(v)};" for atom, v in entries)
        blocks.append(f"utility {context} {{\n{body}\n}}")

    return "\n\n".join(blocks) + "\n"


def format_number(value: Fraction) -> str:
    """An exact rational as the format writes it: `2`, `-3` or `1/3`."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
