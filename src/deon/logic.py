"""Formula representation, substitution, finite-domain grounding, clause form.

There are no modal operators here. Possibility, rational belief and rational
requirement are decided as satisfiability queries against an agent's theory
(see `principles`), so a formula is always a plain first-order one.

Everything here is immutable and every operation is a pure function, so
formulas and clause sets can be shared between concurrent evaluations
without coordination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

AGENT = "agent"
OBJECT = "object"

#: Reserved predicate marking hypothetical universal adoption of a plan.
#: The leading "@" keeps it out of the namespace of declared predicates.
UNIVERSALIZATION_PREDICATE = "@universally_adopted"


class LogicError(Exception):
    """A structurally invalid formula operation."""


class GroundingError(LogicError):
    """A formula cannot be grounded over the given domains."""


@dataclass(frozen=True)
class Term:
    """An agent or object, either a constant or a variable."""

    sort: str  # AGENT or OBJECT
    name: str
    is_var: bool = False

    def __post_init__(self) -> None:
        if self.sort not in (AGENT, OBJECT):
            raise LogicError(f"unknown term sort {self.sort!r}")
        if not self.name:
            raise LogicError("term name must be a nonempty token")

    def __str__(self) -> str:
        return self.name


def agent_const(name: str) -> Term:
    return Term(AGENT, name)


def agent_var(name: str) -> Term:
    return Term(AGENT, name, is_var=True)


def object_const(name: str) -> Term:
    return Term(OBJECT, name)


def object_var(name: str) -> Term:
    return Term(OBJECT, name, is_var=True)


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms. Ground when all args are constants.

    Atoms are hashed several times over while each query is assembled, so
    the hash is cached on first use. Its value is the one the dataclass
    would compute, `hash((predicate, args))`, so set and dict order is
    unchanged; a pickled atom leaves the cached value behind.
    """

    predicate: str
    args: tuple[Term, ...] = ()
    _hash = None  # the cached hash; not a field, since it has no annotation

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.predicate, self.args))
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self) -> tuple:
        # String hashes differ between processes: rebuild, do not copy the cache.
        return Atom, (self.predicate, self.args)

    def is_ground(self) -> bool:
        return all(not t.is_var for t in self.args)

    def __str__(self) -> str:
        name = self.predicate.lstrip("@")
        if not self.args:
            return name
        return f"{name}({', '.join(str(t) for t in self.args)})"


@dataclass(frozen=True)
class SignedAtom:
    """An atom or its negation; the building block of plan reasons/actions."""

    atom: Atom
    negated: bool = False

    def as_formula(self) -> "Formula":
        f: Formula = AtomF(self.atom)
        return Not(f) if self.negated else f

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else str(self.atom)


# --------------------------------------------------------------------------
# Formula nodes


class Formula:
    """Base class for formula nodes. Subclasses are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class AtomF(Formula):
    atom: Atom


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula


@dataclass(frozen=True)
class ForAll(Formula):
    """Universal quantification of an agent or object variable."""

    var: Term
    body: Formula

    def __post_init__(self) -> None:
        if not self.var.is_var:
            raise LogicError(f"forall binds a variable, got constant {self.var}")


#: The neutral true formula (empty conjunction).
TRUE: Formula = And(())


def conj(parts: Sequence[Formula]) -> Formula:
    """Conjunction helper: () -> TRUE, a single part passes through."""
    parts = tuple(parts)
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def universalization_trigger(plan_id: str) -> Atom:
    """The ground trigger atom asserted when a plan is universalized."""
    return Atom(UNIVERSALIZATION_PREDICATE, (object_const(plan_id),))


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, (And, Or)):
        return f.parts
    if isinstance(f, Implies):
        return (f.antecedent, f.consequent)
    if isinstance(f, ForAll):
        return (f.body,)
    return ()


def walk(f: Formula) -> Iterator[Formula]:
    """Pre-order traversal in syntactic order."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def atoms_of(f: Formula) -> Iterator[Atom]:
    for node in walk(f):
        if isinstance(node, AtomF):
            yield node.atom


# --------------------------------------------------------------------------
# Substitution


def substitute_term(term: Term, binding: Mapping[Term, Term]) -> Term:
    if term.is_var and term in binding:
        replacement = binding[term]
        if replacement.is_var:
            raise LogicError(f"substitution target for {term} must be a constant")
        if replacement.sort != term.sort:
            raise LogicError(
                f"cannot bind {term.sort} variable {term.name} "
                f"to {replacement.sort} constant {replacement.name}"
            )
        return replacement
    return term


def substitute_atom(atom: Atom, binding: Mapping[Term, Term]) -> Atom:
    if not binding or not atom.args:
        return atom
    return Atom(atom.predicate, tuple(substitute_term(t, binding) for t in atom.args))


def substitute_signed(sa: SignedAtom, binding: Mapping[Term, Term]) -> SignedAtom:
    return SignedAtom(substitute_atom(sa.atom, binding), sa.negated)


# --------------------------------------------------------------------------
# Grounding


def ground(f: Formula, agents: Sequence[Term], objects: Sequence[Term] = ()) -> Formula:
    """Expand quantifiers over finite domains.

    Both domains are constants used as they are, such as a scenario's
    `agents` and `objects`.
    Free variables are universally closed over their sort's domain first
    (in first-occurrence order), so the result never has free variables.
    Quantified variables are bound through an environment as the tree is
    rebuilt, one pass per instance. Deterministic: identical inputs,
    including domain order, give structurally identical output.
    """
    if not agents:
        raise GroundingError("empty agent domain")

    closed = f
    for var in _ordered_free_vars(f):
        closed = ForAll(var, closed)

    def go(node: Formula, env: dict[Term, Term]) -> Formula:
        if isinstance(node, AtomF):
            atom = node.atom
            if not env or not atom.args:
                return node
            return AtomF(Atom(atom.predicate, tuple([env.get(t, t) for t in atom.args])))
        if isinstance(node, Not):
            return Not(go(node.body, env))
        if isinstance(node, And):
            return And(tuple([go(p, env) for p in node.parts]))
        if isinstance(node, Or):
            return Or(tuple([go(p, env) for p in node.parts]))
        if isinstance(node, Implies):
            return Implies(go(node.antecedent, env), go(node.consequent, env))
        if isinstance(node, ForAll):
            domain = agents if node.var.sort == AGENT else objects
            if not domain:
                raise GroundingError(
                    f"empty {node.var.sort} domain for quantified variable {node.var.name}"
                )
            return conj(tuple([go(node.body, {**env, node.var: c}) for c in domain]))
        raise LogicError(f"unknown formula node {type(node).__name__}")

    return go(closed, {})


def _ordered_free_vars(f: Formula) -> list[Term]:
    seen: list[Term] = []

    def go(node: Formula, bound: frozenset[Term]) -> None:
        if isinstance(node, AtomF):
            for t in node.atom.args:
                if t.is_var and t not in bound and t not in seen:
                    seen.append(t)
            return
        if isinstance(node, ForAll):
            go(node.body, bound | {node.var})
            return
        for c in children(node):
            go(c, bound)

    go(f, frozenset())
    return seen


# --------------------------------------------------------------------------
# Clause form


@dataclass(frozen=True)
class GroundClauseSet:
    """Target form for the satisfiability engine.

    Variables 0..len(atoms)-1 are the ground atoms; the next aux_count
    variables are definitional atoms introduced by the conversion.
    A literal is +(index+1) or -(index+1). Labels record, per clause,
    which part of a query produced it (may be empty).

    Construction checks every clause: each is nonempty and every literal
    is nonzero and names one of the variables.
    """

    atoms: tuple[Atom, ...]
    aux_count: int
    clauses: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.labels and len(self.labels) != len(self.clauses):
            raise LogicError("clause labels must match clauses one to one")
        n = self.num_vars
        for cl in self.clauses:
            if not cl:
                raise LogicError("clauses must be nonempty")
            for lit in cl:
                if lit == 0 or abs(lit) > n:
                    raise LogicError(f"literal {lit} out of range for {n} variables")

    @property
    def num_vars(self) -> int:
        return len(self.atoms) + self.aux_count

    def label_of(self, clause_index: int) -> str:
        return self.labels[clause_index] if self.labels else ""

    def literal_str(self, lit: int) -> str:
        idx = abs(lit) - 1
        name = str(self.atoms[idx]) if idx < len(self.atoms) else f"aux{idx - len(self.atoms)}"
        return f"not {name}" if lit < 0 else name

    def clause_str(self, clause_index: int) -> str:
        return " or ".join(self.literal_str(lit) for lit in self.clauses[clause_index])

    def to_dimacs(self) -> str:
        """DIMACS-style text: a `c` line naming each variable, then one clause per line."""
        lines = [f"c {i + 1} {atom}" for i, atom in enumerate(self.atoms)]
        for k in range(self.aux_count):
            lines.append(f"c {len(self.atoms) + k + 1} aux{k}")
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        for cl in self.clauses:
            lines.append(" ".join(str(lit) for lit in cl) + " 0")
        return "\n".join(lines) + "\n"


class _Encoder:
    """Definitional clause encoding against a given numbering.

    Atom `a` is variable `index[a]`; aux variables are numbered from
    `first_aux` on, in the order the encoding asks for them. Which clauses
    come out, in which order and with which labels, depends only on the
    formulas; the numbering only names the variables. So encoding a
    fragment once with its own numbering (atoms 1..k, aux from k + 1) and
    renaming its variables (`splice`) gives exactly the clauses that
    encoding the same formulas in the query's numbering gives.
    """

    def __init__(self, index: Mapping[Atom, int], first_aux: int) -> None:
        self.index = index
        self.next_var = first_aux
        self.clauses: list[tuple[int, ...]] = []
        self.labels: list[str] = []

    def _new_aux(self) -> int:
        lit = self.next_var
        self.next_var += 1
        return lit

    def _emit(self, lits: Sequence[int], label: str) -> None:
        self.clauses.append(tuple(lits))
        self.labels.append(label)

    def encode(self, f: Formula, label: str) -> int:
        if isinstance(f, AtomF):
            return self.index[f.atom]
        if isinstance(f, Not):
            return -self.encode(f.body, label)
        if isinstance(f, Implies):
            return self.encode(Or((Not(f.antecedent), f.consequent)), label)
        if isinstance(f, And):
            if not f.parts:
                v = self._new_aux()
                self._emit([v], label)
                return v
            lits = [self.encode(p, label) for p in f.parts]
            if len(lits) == 1:
                return lits[0]
            v = self._new_aux()
            for lit in lits:
                self._emit([-v, lit], label)
            self._emit([v] + [-lit for lit in lits], label)
            return v
        if isinstance(f, Or):
            if not f.parts:
                v = self._new_aux()
                self._emit([v], label)
                self._emit([-v], label)
                return v
            lits = [self.encode(p, label) for p in f.parts]
            if len(lits) == 1:
                return lits[0]
            v = self._new_aux()
            self._emit([-v] + lits, label)
            for lit in lits:
                self._emit([v, -lit], label)
            return v
        raise LogicError(f"cannot encode {type(f).__name__} node")

    def assert_top(self, f: Formula, label: str) -> None:
        # Keep top-level structure flat: conjunctions split into their
        # parts and a top disjunction/implication becomes one clause.
        if isinstance(f, And):
            for p in f.parts:
                self.assert_top(p, label)
            return
        if isinstance(f, Implies):
            self.assert_top(Or((Not(f.antecedent), f.consequent)), label)
            return
        if isinstance(f, Or) and f.parts:
            self._emit([self.encode(p, label) for p in f.parts], label)
            return
        if isinstance(f, Or):  # empty disjunction: unsatisfiable
            v = self._new_aux()
            self._emit([v], label)
            self._emit([-v], label)
            return
        self._emit([self.encode(f, label)], label)

    def splice(self, fragment: GroundClauseSet) -> None:
        """Append a fragment's clauses, renamed into this numbering.

        Its atoms go to their variables in `index`; its aux variables
        become the next `fragment.aux_count` aux variables here. The rename
        table is one list indexed by the fragment's literals: `rename[v]`
        is the new variable of variable v, and the negative literal -v
        indexes the mirrored upper half, which holds its negation.
        """
        first_aux = self.next_var
        self.next_var += fragment.aux_count
        variables = [*map(self.index.__getitem__, fragment.atoms)]
        variables += range(first_aux, self.next_var)
        rename = [0, *variables, *[-var for var in reversed(variables)]]
        get = rename.__getitem__
        self.clauses.extend([tuple(map(get, cl)) for cl in fragment.clauses])
        self.labels.extend(fragment.labels or [""] * len(fragment.clauses))


def _assemble(parts: Sequence[tuple[Formula, str] | GroundClauseSet]) -> GroundClauseSet:
    # Atoms are numbered by first occurrence across the parts, in order
    # (`dict.fromkeys` keeps the first of equal keys, in order), and aux
    # variables after all atoms, in encoding order.
    atoms = tuple(dict.fromkeys(itertools.chain.from_iterable(
        part.atoms if isinstance(part, GroundClauseSet) else atoms_of(part[0])
        for part in parts
    )))
    for atom in atoms:
        if not atom.is_ground():
            raise LogicError(f"non-ground atom {atom} in clause conversion")
    encoder = _Encoder(dict(zip(atoms, range(1, len(atoms) + 1))), len(atoms) + 1)
    for part in parts:
        if isinstance(part, GroundClauseSet):
            encoder.splice(part)
        else:
            encoder.assert_top(*part)
    return GroundClauseSet(
        atoms, encoder.next_var - len(atoms) - 1,
        tuple(encoder.clauses), tuple(encoder.labels),
    )


def compile_fragment(
    parts: Iterable[tuple[Formula, str] | GroundClauseSet],
) -> GroundClauseSet:
    """The clause set of labeled ground formulas, numbered on its own.

    This is what `ClauseBuilder` would build from the same parts, made
    without a builder: a fragment compiled once and added to many builders
    with `ClauseBuilder.add_fragment`. A part may itself be a fragment, so
    fragments nest: splicing one here is identical to adding its formulas in
    its place. Like `build`, it checks groundness over the atoms it collects.
    """
    return _assemble(list(parts))


class ClauseBuilder:
    """Accumulates labeled ground formulas into one equisatisfiable clause set.

    Conversion is definitional: fresh atoms name compound subformulas instead
    of distributing disjunctions, so size stays linear. Satisfiability, not
    logical equivalence, is the contract. `build` checks groundness over the
    atoms it collects: a non-ground atom or a `ForAll` raises `LogicError`.

    A part may also be a fragment made by `compile_fragment`. `build`
    renames only the fragments' variables, and the result is identical to
    adding the fragment's formulas in its place. Atoms are numbered by
    first occurrence across the parts, and a fragment lists its atoms in
    first-occurrence order, so scanning that list numbers them as scanning
    its formulas would. Aux variables come after all atoms, in encoding
    order, and a fragment's aux variables are in its own encoding order,
    so they take the next block of aux numbers as encoding in place would.
    """

    def __init__(self) -> None:
        self._parts: list[tuple[Formula, str] | GroundClauseSet] = []

    def add(self, formula: Formula, label: str = "") -> "ClauseBuilder":
        self._parts.append((formula, label))
        return self

    def add_fragment(self, fragment: GroundClauseSet) -> "ClauseBuilder":
        """Add a clause set made by `compile_fragment`, as one part."""
        self._parts.append(fragment)
        return self

    def build(self) -> GroundClauseSet:
        return _assemble(self._parts)
