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
sort. Parsing is a pure function of the input text and never raises on
malformed input; failures come back as diagnostics with source spans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .logic import (
    AGENT,
    OBJECT,
    AgentId,
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
    object_const,
    object_var,
)
from .scenario import (
    ActionPlan,
    CandidateSet,
    ConstraintBase,
    PredicateDecl,
    Scenario,
    UniversalizationEffect,
    UtilityTable,
    validate,
)

DEFAULT_MAX_SOURCE = 1_000_000
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
    length: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    severity: str  # "error" | "warning"
    message: str
    code: str  # "lex" | "syntax" | "duplicate" | "unknown-ref" | "kind" | "limit" | "validation"
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.span}: {self.severity}: {self.message}{hint} [{self.code}]"


@dataclass
class ParseResult:
    scenario: Scenario | None
    diagnostics: list[ParseDiagnostic]

    @property
    def ok(self) -> bool:
        return self.scenario is not None and not any(
            d.severity == "error" for d in self.diagnostics
        )


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT NUMBER ARROW EOF or a _PUNCT name
    text: str
    line: int
    column: int

    def span(self, filename: str) -> SourceSpan:
        return SourceSpan(filename, self.line, self.column, max(len(self.text), 1))


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
                SourceSpan(filename, line, col, 1), "error",
                f"unexpected character {m.group()!r}", "lex",
            ))
        else:
            token_kind = _PUNCT[m.group()] if kind == "PUNCT" else kind
            tokens.append(_Token(token_kind, m.group(), line, col))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens, diagnostics


#: Resolves a term name; gets the name's span and the declared sort of its
#: argument position (None for an unknown predicate or an extra argument).
_TermResolver = Callable[[str, SourceSpan, "str | None"], Term]


class _Parser:
    def __init__(self, tokens: list[_Token], filename: str):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0
        self.diagnostics: list[ParseDiagnostic] = []

        self.scenario_name = ""
        self.agents: list[AgentId] = []
        self.objects: list[str] = []
        self.predicates: dict[str, PredicateDecl] = {}
        self.plans: list[ActionPlan] = []
        self.physical: list[tuple[Formula, SourceSpan]] = []
        self.beliefs: dict[str, tuple[tuple[Formula, SourceSpan], ...]] = {}
        self.effects: list[UniversalizationEffect] = []
        self.utilities: dict[tuple[str, Atom], Fraction] = {}
        self.utility_spans: dict[tuple[str, Atom], SourceSpan] = {}
        self.candidates: list[CandidateSet] = []

        # Name-resolution findings go here; inside a formula, to a list that
        # is reported once the formula's `;` has been read.
        self.findings = self.diagnostics
        # The variables bound around the formula being read, innermost last,
        # each with the sorts of the argument positions it has filled.
        self.bound: list[tuple[str, set[str]]] = []
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
            ParseDiagnostic(tok.span(self.filename), "error", message, code, expected)
        )

    def expect(self, kind: str, what: str, text: str | None = None) -> _Token | None:
        if self.at(kind, text):
            return self.advance()
        tok = self.peek()
        got = tok.text or "end of input"
        self.error(f"expected {what}, found {got!r}", tok, expected=(what,))
        return None

    def expect_name(self, what: str) -> _Token | None:
        if self.at("IDENT") and self.peek().text not in KEYWORDS:
            return self.advance()
        tok = self.peek()
        if tok.kind == "IDENT":
            self.error(f"{tok.text!r} is a reserved word and cannot name a {what}", tok)
            return self.advance()  # consume so progress is guaranteed
        self.error(f"expected {what} name, found {tok.text or 'end of input'!r}", tok,
                   expected=(what,))
        return None

    def sync_to_section(self) -> None:
        """Error recovery: skip forward to the next top-level section keyword."""
        self.advance()  # always make progress
        while not self.at("EOF") and not self.at_keyword(*SECTION_KEYWORDS):
            self.advance()

    # -- top level ----------------------------------------------------------

    def parse(self) -> None:
        if self.at_keyword("scenario"):
            self.advance()
            tok = self.expect_name("scenario")
            if tok:
                self.scenario_name = tok.text
        else:
            self.error("expected scenario header")
            if self.at("EOF"):
                return
        while not self.at("EOF"):
            tok = self.peek()
            if not self.at_keyword(*SECTION_KEYWORDS):
                self.error(
                    f"expected a section keyword, found {tok.text or 'end of input'!r}",
                    expected=SECTION_KEYWORDS,
                )
                self.sync_to_section()
                continue
            if tok.text == "scenario":
                self.error("duplicate scenario header", tok, code="duplicate")
                self.sync_to_section()
                continue
            handler: Callable[[], None] = getattr(self, f"_section_{tok.text}")
            before = self.pos
            handler()
            if self.pos == before:  # defensive: a section must consume input
                self.sync_to_section()

    # -- sections -----------------------------------------------------------

    def _section_agents(self) -> None:
        self.advance()
        for tok in self._name_list("agent"):
            if any(a.name == tok.text for a in self.agents):
                self.error(f"agent {tok.text} declared more than once", tok, code="duplicate")
            elif tok.text in self.objects:
                self.error(f"{tok.text} is already an object name", tok, code="duplicate")
            else:
                self.agents.append(AgentId(tok.text))

    def _section_objects(self) -> None:
        self.advance()
        for tok in self._name_list("object"):
            if tok.text in self.objects:
                self.error(f"object {tok.text} declared more than once", tok, code="duplicate")
            elif any(a.name == tok.text for a in self.agents):
                self.error(f"{tok.text} is already an agent name", tok, code="duplicate")
            else:
                self.objects.append(tok.text)

    def _name_list(self, what: str) -> list[_Token]:
        names: list[_Token] = []
        tok = self.expect_name(what)
        if tok:
            names.append(tok)
        while self.at("COMMA"):
            self.advance()
            tok = self.expect_name(what)
            if tok:
                names.append(tok)
            else:
                break
        return names

    def _section_predicates(self) -> None:
        self.advance()
        while True:
            self._predicate_decl()
            if self.at("COMMA"):
                self.advance()
                continue
            break

    def _predicate_decl(self) -> None:
        tok = self.expect_name("predicate")
        if tok is None:
            return
        if self.expect("LPAREN", "'('") is None:
            return
        sorts: list[str] = []
        if not self.at("RPAREN"):
            while True:
                if self.at_keyword("agent"):
                    self.advance()
                    sorts.append(AGENT)
                elif self.at_keyword("object"):
                    self.advance()
                    sorts.append(OBJECT)
                else:
                    self.error("expected 'agent' or 'object'", expected=("agent", "object"))
                    return
                if self.at("COMMA"):
                    self.advance()
                    continue
                break
        if self.expect("RPAREN", "')'") is None:
            return
        is_action = False
        if self.at_keyword("action"):
            self.advance()
            is_action = True
        if tok.text in self.predicates:
            self.error(f"predicate {tok.text} declared more than once", tok, code="duplicate")
            return
        self.predicates[tok.text] = PredicateDecl(
            tok.text, tuple(sorts), is_action, span=tok.span(self.filename)
        )

    def _section_plan(self) -> None:
        start = self.advance()
        id_tok = self.expect_name("plan")
        if id_tok is None:
            self.sync_to_section()
            return
        if self.expect("IDENT", "'agent'", text="agent") is None:
            self.sync_to_section()
            return
        agent_tok = self.expect_name("agent")
        if agent_tok is None:
            self.sync_to_section()
            return
        if not any(a.name == agent_tok.text for a in self.agents):
            self.error(f"unknown agent {agent_tok.text}", agent_tok, code="unknown-ref")
        object_vars: list[Term] = []
        if self.at_keyword("forall"):
            self.advance()
            for tok in self._name_list("object variable"):
                if tok.text in self.objects or any(a.name == tok.text for a in self.agents):
                    self.error(
                        f"object variable {tok.text} clashes with a declared constant",
                        tok, code="duplicate",
                    )
                object_vars.append(object_var(tok.text))
        if self.expect("COLON", "':'") is None:
            self.sync_to_section()
            return
        if self.expect("IDENT", "'reasons'", text="reasons") is None:
            self.sync_to_section()
            return
        reasons = self._literal_list_block(
            lambda name, span, _: self._plan_term(name, span, agent_tok.text, object_vars)
        )
        if reasons is None:
            self.sync_to_section()
            return
        if self.expect("IDENT", "'action'", text="action") is None:
            self.sync_to_section()
            return
        action_list = self._literal_list_block(
            lambda name, span, _: self._plan_term(name, span, agent_tok.text, object_vars)
        )
        if action_list is None:
            self.sync_to_section()
            return
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
        if any(p.id == id_tok.text for p in self.plans):
            self.error(f"plan id {id_tok.text} declared more than once", id_tok, code="duplicate")
            return
        self.plans.append(
            ActionPlan(
                id=id_tok.text,
                agent=AgentId(agent_tok.text),
                reasons=tuple(reasons),
                action=action,
                object_vars=tuple(object_vars),
                span=start.span(self.filename),
            )
        )

    def _plan_term(self, name: str, span: SourceSpan, plan_agent: str,
                   object_vars: list[Term]) -> Term:
        if name == plan_agent:
            return agent_var(name)
        for var in object_vars:
            if var.name == name:
                return var
        return self._constant_term(name, span)

    def _constant_term(self, name: str, span: SourceSpan, sort: str | None = None) -> Term:
        if any(a.name == name for a in self.agents):
            return agent_const(name)
        if name in self.objects:
            return object_const(name)
        self.findings.append(
            ParseDiagnostic(span, "error", f"unknown agent or object {name}", "unknown-ref")
        )
        return agent_const(name)  # recovery value; the parse already failed

    def _formula_term(self, name: str, span: SourceSpan, sort: str | None) -> Term:
        """A bound variable takes the sort of its position; other names are constants."""
        for var, sorts in reversed(self.bound):
            if var == name:
                if sort is None:  # unknown predicate or extra argument: already an error
                    return Term(AGENT, name, is_var=True)
                sorts.add(sort)
                return Term(sort, name, is_var=True)
        return self._constant_term(name, span)

    def _literal_list_block(
        self, term_resolver: _TermResolver
    ) -> list[SignedAtom] | None:
        if self.expect("LBRACE", "'{'") is None:
            return None
        literals: list[SignedAtom] = []
        while True:
            lit = self._literal(term_resolver)
            if lit is None:
                return None
            literals.append(lit)
            if self.at("COMMA"):
                self.advance()
                continue
            break
        if self.expect("RBRACE", "',' or '}'") is None:
            return None
        return literals

    def _literal(self, term_resolver: _TermResolver) -> SignedAtom | None:
        negated = False
        if self.at_keyword("not"):
            self.advance()
            negated = True
        atom = self._atom(term_resolver)
        if atom is None:
            return None
        return SignedAtom(atom, negated)

    def _atom(self, term_resolver: _TermResolver) -> Atom | None:
        """A predicate applied to terms; the resolver gets each position's declared sort."""
        tok = self.expect_name("predicate")
        if tok is None:
            return None
        decl = self.predicates.get(tok.text)
        sorts = decl.arg_sorts if decl is not None else ()
        args: list[Term] = []
        if self.at("LPAREN"):
            self.advance()
            if not self.at("RPAREN"):
                while True:
                    arg = self.expect_name("term")
                    if arg is None:
                        return None
                    sort = sorts[len(args)] if len(args) < len(sorts) else None
                    args.append(term_resolver(arg.text, arg.span(self.filename), sort))
                    if self.at("COMMA"):
                        self.advance()
                        continue
                    break
            if self.expect("RPAREN", "',' or ')'") is None:
                return None
        atom = Atom(tok.text, tuple(args))
        self._check_atom_signature(atom, tok)
        return atom

    def _check_atom_signature(self, atom: Atom, tok: _Token) -> None:
        def finding(message: str, code: str) -> None:
            self.findings.append(
                ParseDiagnostic(tok.span(self.filename), "error", message, code)
            )

        decl = self.predicates.get(atom.predicate)
        if decl is None:
            finding(f"unknown predicate {atom.predicate}", "unknown-ref")
            return
        if len(atom.args) != decl.arity:
            finding(
                f"predicate {atom.predicate} takes {decl.arity} arguments, got {len(atom.args)}",
                "kind",
            )
            return
        for term, sort in zip(atom.args, decl.arg_sorts):
            if term.sort != sort:
                finding(f"argument {term.name} of {atom.predicate} should be an {sort}", "kind")

    def _section_physics(self) -> None:
        self.advance()
        formulas = self._formula_block()
        if formulas is None:
            self.sync_to_section()
            return
        self.physical.extend(formulas)

    def _section_belief(self) -> None:
        self.advance()
        agent_tok = self.expect_name("agent")
        if agent_tok is None:
            self.sync_to_section()
            return
        if not any(a.name == agent_tok.text for a in self.agents):
            self.error(f"unknown agent {agent_tok.text}", agent_tok, code="unknown-ref")
        formulas = self._formula_block()
        if formulas is None:
            self.sync_to_section()
            return
        if formulas or agent_tok.text in self.beliefs:
            existing = self.beliefs.get(agent_tok.text, ())
            self.beliefs[agent_tok.text] = existing + tuple(formulas)

    def _section_on_universalized(self) -> None:
        start = self.advance()
        plan_tok = self.expect_name("plan")
        if plan_tok is None:
            self.sync_to_section()
            return
        if not any(p.id == plan_tok.text for p in self.plans):
            self.error(f"unknown plan {plan_tok.text}", plan_tok, code="unknown-ref")
        formulas = self._formula_block()
        if formulas is None:
            self.sync_to_section()
            return
        for f, _ in formulas:
            self.effects.append(
                UniversalizationEffect(plan_tok.text, f, span=start.span(self.filename))
            )

    def _section_utility(self) -> None:
        self.advance()
        ctx_tok = self.expect_name("context")
        if ctx_tok is None:
            self.sync_to_section()
            return
        if not any(c.context == ctx_tok.text for c in self.candidates):
            self.error(f"unknown candidate context {ctx_tok.text}", ctx_tok, code="unknown-ref")
        if self.expect("LBRACE", "'{'") is None:
            self.sync_to_section()
            return
        while not self.at("RBRACE") and not self.at("EOF"):
            entry = self.peek()
            atom = self._atom(self._constant_term)
            if atom is None:
                self.sync_to_section()
                return
            if self.expect("EQUALS", "'='") is None:
                self.sync_to_section()
                return
            num = self.expect("NUMBER", "a number")
            if num is None:
                self.sync_to_section()
                return
            if self.expect("SEMI", "';'") is None:
                self.sync_to_section()
                return
            key = (ctx_tok.text, atom)
            if key in self.utilities:
                self.error(f"duplicate utility entry for {atom}", num, code="duplicate")
            else:
                self.utilities[key] = Fraction(num.text)
                self.utility_spans[key] = entry.span(self.filename)
        self.expect("RBRACE", "'}'")

    def _section_candidates(self) -> None:
        start = self.advance()
        ctx_tok = self.expect_name("context")
        if ctx_tok is None:
            self.sync_to_section()
            return
        if self.expect("IDENT", "'given'", text="given") is None:
            self.sync_to_section()
            return
        condition = self._literal_list_block(self._constant_term)
        if condition is None:
            self.sync_to_section()
            return
        if self.expect("LBRACE", "'{'") is None:
            self.sync_to_section()
            return
        actions: list[Atom] = []
        while True:
            atom = self._atom(self._constant_term)
            if atom is None:
                self.sync_to_section()
                return
            actions.append(atom)
            if self.at("COMMA"):
                self.advance()
                continue
            break
        if self.expect("RBRACE", "',' or '}'") is None:
            self.sync_to_section()
            return
        if any(c.context == ctx_tok.text for c in self.candidates):
            self.error(f"candidate context {ctx_tok.text} declared more than once",
                       ctx_tok, code="duplicate")
            return
        self.candidates.append(
            CandidateSet(
                context=ctx_tok.text,
                condition=tuple(condition),
                actions=tuple(actions),
                span=start.span(self.filename),
            )
        )

    # -- formulas -----------------------------------------------------------

    def _formula_block(self) -> list[tuple[Formula, SourceSpan]] | None:
        """The formulas of a `{ f; ... }` block, each with the span of its first token.

        A formula's name-resolution findings are reported after its `;`. A
        quantifier whose variable gets no sort, or two, fails the block.
        """
        if self.expect("LBRACE", "'{'") is None:
            return None
        formulas: list[tuple[Formula, SourceSpan]] = []
        while not self.at("RBRACE") and not self.at("EOF"):
            span = self.peek().span(self.filename)
            pending: list[ParseDiagnostic] = []
            self.findings, self.quantifier_failed = pending, False
            formula = self._formula(0)
            self.findings = self.diagnostics
            if formula is None:
                return None
            if self.expect("SEMI", "';'") is None:
                return None
            self.diagnostics.extend(pending)
            if self.quantifier_failed:
                return None
            formulas.append((formula, span))
        if self.expect("RBRACE", "'}'") is None:
            return None
        return formulas

    def _formula(self, depth: int) -> Formula | None:
        if depth > MAX_FORMULA_DEPTH:
            self.error("formula nesting too deep", code="limit")
            return None
        if self.at_keyword("forall"):
            self.advance()
            var_tok = self.expect_name("variable")
            if var_tok is None:
                return None
            if self.expect("DOT", "'.'") is None:
                return None
            mark = len(self.findings)
            sorts: set[str] = set()
            self.bound.append((var_tok.text, sorts))
            body = self._formula(depth + 1)
            self.bound.pop()
            if body is None:
                return None
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
                ParseDiagnostic(var_tok.span(self.filename), "error", message, "kind")
            )
            return body
        return self._implication(depth)

    def _implication(self, depth: int) -> Formula | None:
        left = self._disjunction(depth)
        if left is None:
            return None
        if self.at("ARROW"):
            self.advance()
            right = self._implication(depth + 1)
            if right is None:
                return None
            return Implies(left, right)
        return left

    def _disjunction(self, depth: int) -> Formula | None:
        parts = [self._conjunction(depth)]
        if parts[0] is None:
            return None
        while self.at_keyword("or"):
            self.advance()
            nxt = self._conjunction(depth)
            if nxt is None:
                return None
            parts.append(nxt)
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def _conjunction(self, depth: int) -> Formula | None:
        parts = [self._unary(depth)]
        if parts[0] is None:
            return None
        while self.at_keyword("and"):
            self.advance()
            nxt = self._unary(depth)
            if nxt is None:
                return None
            parts.append(nxt)
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _unary(self, depth: int) -> Formula | None:
        if depth > MAX_FORMULA_DEPTH:
            self.error("formula nesting too deep", code="limit")
            return None
        if self.at_keyword("not"):
            self.advance()
            body = self._unary(depth + 1)
            if body is None:
                return None
            return Not(body)
        if self.at("LPAREN"):
            self.advance()
            inner = self._formula(depth + 1)
            if inner is None:
                return None
            if self.expect("RPAREN", "')'") is None:
                return None
            return inner
        if self.at_keyword("forall"):
            return self._formula(depth)  # quantifier directly under a connective
        atom = self._atom(self._formula_term)
        return None if atom is None else AtomF(atom)

    # -- result -------------------------------------------------------------

    def build(self) -> Scenario:
        return Scenario(
            name=self.scenario_name,
            agents=tuple(self.agents),
            objects=tuple(self.objects),
            predicates=tuple(self.predicates.values()),
            plans=tuple(self.plans),
            constraints=ConstraintBase(
                tuple(f for f, _ in self.physical),
                {agent: tuple(f for f, _ in fs) for agent, fs in self.beliefs.items()},
                tuple(span for _, span in self.physical),
                {agent: tuple(span for _, span in fs) for agent, fs in self.beliefs.items()},
            ),
            effects=tuple(self.effects),
            utilities=UtilityTable(dict(self.utilities), dict(self.utility_spans)),
            candidates=tuple(self.candidates),
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
            ParseDiagnostic(SourceSpan(filename, 1, 1, 1), "error",
                            f"input of {len(text)} characters exceeds the {max_size} limit",
                            "limit")
        ])
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    tokens, diagnostics = _lex(text, filename)
    parser = _Parser(tokens, filename)
    parser.parse()
    diagnostics.extend(parser.diagnostics)
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)
    scenario = parser.build()
    start = SourceSpan(filename, 1, 1, 1)
    for finding in validate(scenario):
        diagnostics.append(
            ParseDiagnostic(finding.span or start, "error", str(finding), "validation")
        )
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(scenario, diagnostics)


# --------------------------------------------------------------------------
# Printing


_LEVEL_FORALL = 0
_LEVEL_IMPLIES = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_NOT = 4


def _formula_level(f: Formula) -> int:
    if isinstance(f, ForAll):
        return _LEVEL_FORALL
    if isinstance(f, Implies):
        return _LEVEL_IMPLIES
    if isinstance(f, Or):
        return _LEVEL_OR
    if isinstance(f, And):
        return _LEVEL_AND
    if isinstance(f, Not):
        return _LEVEL_NOT
    return _LEVEL_NOT + 1


def format_formula(f: Formula, min_level: int = 0) -> str:
    """Source syntax for a formula, minimal parentheses."""
    if _formula_level(f) < min_level:
        return f"({format_formula(f, 0)})"
    if isinstance(f, ForAll):
        return f"forall {f.var.name}. {format_formula(f.body, 0)}"
    if isinstance(f, Implies):
        left = format_formula(f.antecedent, _LEVEL_IMPLIES + 1)
        right = format_formula(f.consequent, _LEVEL_IMPLIES)
        return f"{left} -> {right}"
    if isinstance(f, Or):
        if len(f.parts) < 2:
            raise ValueError("degenerate disjunction has no source syntax")
        return " or ".join(format_formula(p, _LEVEL_OR + 1) for p in f.parts)
    if isinstance(f, And):
        if len(f.parts) < 2:
            raise ValueError("degenerate conjunction has no source syntax")
        return " and ".join(format_formula(p, _LEVEL_AND + 1) for p in f.parts)
    if isinstance(f, Not):
        return f"not {format_formula(f.body, _LEVEL_NOT)}"
    if isinstance(f, AtomF):
        return str(f.atom)
    raise ValueError(f"{type(f).__name__} nodes have no source syntax")


def print_scenario(scenario: Scenario) -> str:
    """Canonical source text; re-parsing yields a structurally equal Scenario."""
    blocks: list[str] = [f"scenario {scenario.name}"]

    if scenario.agents:
        blocks.append("agents " + ", ".join(a.name for a in scenario.agents))
    if scenario.objects:
        blocks.append("objects " + ", ".join(scenario.objects))

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
