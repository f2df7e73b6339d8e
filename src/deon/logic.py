"""Formula representation, substitution, finite-domain grounding, clause form.

There are no modal operators here. Possibility, rational belief and rational
requirement are decided as satisfiability queries against an agent's theory
(see `principles`), so a formula is always a plain first-order one.

`ground` builds the ground formula of a quantified one. Clause conversion
does not need it: `compile_fragment` grounds and encodes in one pass, so a
theory's ground formula is never built. Both take closed formulas, as
`scenario.validate` admits them: a free variable is never closed
implicitly, and clause conversion rejects its atom.

Everything here is immutable and every operation is a pure function, so
formulas and clause sets can be shared between concurrent evaluations
without coordination. Clause sets and queries fill in tables derived from
their fields on first read; two threads doing so at once build equal ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    """An agent or object, either a constant or a variable.

    The hash is cached on first use, as `Atom`'s is: grounding hashes each
    bound variable and each argument of every atom instance. Its value is the
    dataclass's, `hash((sort, name, is_var))`, so set and dict order is
    unchanged; a pickled term leaves the cached value behind.
    """

    sort: str  # AGENT or OBJECT
    name: str
    is_var: bool = False
    _hash = None  # the cached hash; not a field, since it has no annotation

    def __post_init__(self) -> None:
        if self.sort not in (AGENT, OBJECT):
            raise LogicError(f"unknown term sort {self.sort!r}")
        if not self.name:
            raise LogicError("term name must be a nonempty token")

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.sort, self.name, self.is_var))
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self) -> tuple:
        # String hashes differ between processes: rebuild, do not copy the cache.
        return Term, (self.sort, self.name, self.is_var)

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
    Quantified variables are bound through an environment as the tree is
    rebuilt, one pass per instance. A free variable is left in place, for
    clause conversion to reject; `validate` reports one as
    `unbound-variable`. Deterministic: identical inputs, including domain
    order, give structurally identical output.
    """
    if not agents:
        raise GroundingError("empty agent domain")

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

    return go(f, {})


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
    is nonzero and names one of the variables. The set is immutable; only
    `variables`, a lookup table derived from `atoms`, is filled in on first
    use.
    """

    atoms: tuple[Atom, ...]
    aux_count: int
    clauses: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.labels and len(self.labels) != len(self.clauses):
            raise LogicError("clause labels must match clauses one to one")
        _check_range(self.clauses, self.num_vars)

    @property
    def num_vars(self) -> int:
        return len(self.atoms) + self.aux_count

    @cached_property
    def variables(self) -> dict[Atom, int]:
        """Each atom's variable, made on first use: atom i is variable i + 1."""
        return dict(zip(self.atoms, range(1, len(self.atoms) + 1)))

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


def _check_range(clauses: Iterable[tuple[int, ...]], n: int) -> None:
    for cl in clauses:
        if not cl:
            raise LogicError("clauses must be nonempty")
        for lit in cl:
            if lit == 0 or abs(lit) > n:
                raise LogicError(f"literal {lit} out of range for {n} variables")


@dataclass(frozen=True)
class TheoryQuery:
    """A query solved in place against a theory fragment: its plan parts,
    then the theory, without renumbering the theory.

    The query's own numbering, the one its evidence is printed in, is what
    `compile_fragment` gives the same plan parts followed by the theory:
    the plan's atoms by first occurrence, then the theory's other atoms in
    theory order, then the plan's aux variables, then the theory's. The
    solver works in the theory's numbering, extended: variables
    1..theory.num_vars are the theory's, then come the plan's atoms the
    theory lacks, then the plan's aux variables. The plan parts are encoded
    in that numbering once (`plan_clauses`, range-checked then), and
    `clauses` is them followed by the theory's clauses as they were
    compiled, so no theory clause is copied or renamed per query and the
    clause order is the query's.

    `order[q]` is the solver variable of query variable q (`order[0]` is
    0). `sat.solve` branches on the lowest free query variable through it
    and returns the model in query numbering, so its decisions, conflict
    clause indices and witness are those of solving `clause_set`, the
    query in query numbering. That set is built on first read, for a
    DIMACS dump or a caller that wants it, and kept. Printing evidence
    does not need it: a witness reads only `atoms`, and a conflict only
    its own clauses, through `label_of` and `clause_str`, which name them
    as `clause_set` would. Equality and hashing use the theory and the
    plan clauses, from which `order`, `clauses` and `atoms` follow.
    """

    theory: GroundClauseSet
    plan_atoms: tuple[Atom, ...]
    plan_aux_count: int
    plan_clauses: tuple[tuple[int, ...], ...]
    plan_labels: tuple[str, ...]
    order: tuple[int, ...] = field(compare=False, repr=False)
    clauses: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    #: The query's atoms in query numbering, as in `clause_set`.
    atoms: tuple[Atom, ...] = field(compare=False, repr=False)

    @property
    def num_vars(self) -> int:
        return len(self.order) - 1

    def label_of(self, clause_index: int) -> str:
        plan = len(self.plan_clauses)
        if clause_index < plan:
            return self.plan_labels[clause_index]
        return self.theory.label_of(clause_index - plan)

    def clause_str(self, clause_index: int) -> str:
        """Clause `clause_index` as `clause_set` prints it. A stored variable
        is named by its range: a theory atom, a theory aux variable (after
        the plan's in query numbering), a plan atom the theory lacks, or a
        plan aux variable."""
        theory, plan_aux = self.theory, self.plan_aux_count
        theory_atoms, first_new = len(theory.atoms), theory.num_vars + 1
        known = theory.variables
        new_atoms = [atom for atom in self.plan_atoms if atom not in known]
        first_plan_aux = first_new + len(new_atoms)

        def name(var: int) -> str:
            if var <= theory_atoms:
                return str(theory.atoms[var - 1])
            if var < first_new:
                return f"aux{plan_aux + var - theory_atoms - 1}"
            if var < first_plan_aux:
                return str(new_atoms[var - first_new])
            return f"aux{var - first_plan_aux}"

        return " or ".join(
            name(lit) if lit > 0 else f"not {name(-lit)}" for lit in self.clauses[clause_index]
        )

    @cached_property
    def clause_set(self) -> GroundClauseSet:
        """The query in query numbering: the clauses renamed by one table,
        from each solver variable to its query variable, the inverse of
        `order`."""
        position = [0] * len(self.order)
        for q, var in enumerate(self.order):
            position[var] = q
        get = _rename_table(position[1:]).__getitem__
        theory = self.theory
        return GroundClauseSet(
            self.atoms, self.plan_aux_count + theory.aux_count,
            tuple([tuple(map(get, cl)) for cl in self.clauses]),
            self.plan_labels + (theory.labels or ("",) * len(theory.clauses)),
        )


class _Encoder:
    """Grounding fused with definitional clause encoding.

    `add` walks a formula with a binding environment, as `ground` does, and
    emits its clauses at once. A `ForAll` encodes as `conj` of its instances
    in domain order, and at the top level splits like `And`, so the clauses,
    their order and labels are those of encoding the ground formula, which
    is never built. An empty domain raises `GroundingError`, and an atom
    left non-ground, such as one naming a free variable, `LogicError`.

    Atoms take provisional ids on first sight and aux variables in encoding
    order: `slots[p - 1]` is id p's atom index in `atoms`, or `~j` for aux
    variable j. `renamed` gives the clauses in the caller's numbering, one
    table lookup per literal.
    """

    def __init__(self, agents: Sequence[Term] = (), objects: Sequence[Term] = ()) -> None:
        self.agents = agents
        self.objects = objects
        self.ids: dict[tuple[str, tuple[Term, ...]], int] = {}
        self.atoms: list[Atom] = []
        self.slots: list[int] = []
        self.aux_count = 0
        self.clauses: list[tuple[int, ...]] = []
        self.labels: list[str] = []

    def add(self, f: Formula, label: str) -> None:
        before = len(self.clauses)
        self._assert(f, {})
        self.labels += [label] * (len(self.clauses) - before)

    def _var(self, atom: Atom, env: dict[Term, Term]) -> int:
        args = atom.args
        if env and args:
            args = tuple([env.get(t, t) if t.is_var else t for t in args])
        key = (atom.predicate, args)
        var = self.ids.get(key)
        if var is None:
            if args is not atom.args:
                atom = Atom(atom.predicate, args)
            if not atom.is_ground():
                raise LogicError(f"non-ground atom {atom} in clause conversion")
            self.slots.append(len(self.atoms))
            self.atoms.append(atom)
            var = self.ids[key] = len(self.slots)
        return var

    def _new_aux(self) -> int:
        self.slots.append(~self.aux_count)
        self.aux_count += 1
        return len(self.slots)

    def _domain(self, var: Term) -> Sequence[Term]:
        domain = self.agents if var.sort == AGENT else self.objects
        if not domain:
            raise GroundingError(f"empty {var.sort} domain for quantified variable {var.name}")
        return domain

    def _lit(self, f: Formula, env: dict[Term, Term]) -> int:
        if isinstance(f, AtomF):
            return self._var(f.atom, env)
        if isinstance(f, Not):
            return -self._lit(f.body, env)
        if isinstance(f, Or):
            return self._or([self._lit(p, env) for p in f.parts])
        if isinstance(f, Implies):
            return self._or([-self._lit(f.antecedent, env), self._lit(f.consequent, env)])
        if isinstance(f, And):
            return self._and([self._lit(p, env) for p in f.parts])
        if isinstance(f, ForAll):
            var, body = f.var, f.body
            return self._and([self._lit(body, {**env, var: c}) for c in self._domain(var)])
        raise LogicError(f"cannot encode {type(f).__name__} node")

    def _and(self, lits: list[int]) -> int:
        if len(lits) == 1:
            return lits[0]
        v = self._new_aux()
        emit = self.clauses.append
        if not lits:
            emit((v,))
            return v
        for lit in lits:
            emit((-v, lit))
        emit((v, *[-lit for lit in lits]))
        return v

    def _or(self, lits: list[int]) -> int:
        if len(lits) == 1:
            return lits[0]
        v = self._new_aux()
        emit = self.clauses.append
        if not lits:
            emit((v,))
            emit((-v,))
            return v
        emit((-v, *lits))
        for lit in lits:
            emit((v, -lit))
        return v

    def _assert(self, f: Formula, env: dict[Term, Term]) -> None:
        # Keep top-level structure flat: conjunctions and quantifiers split
        # into their parts and a top disjunction/implication becomes one clause.
        if isinstance(f, And):
            for p in f.parts:
                self._assert(p, env)
        elif isinstance(f, ForAll):
            var, body = f.var, f.body
            for c in self._domain(var):
                self._assert(body, {**env, var: c})
        elif isinstance(f, Implies):
            self.clauses.append((-self._lit(f.antecedent, env), self._lit(f.consequent, env)))
        elif isinstance(f, Or) and f.parts:
            self.clauses.append(tuple([self._lit(p, env) for p in f.parts]))
        elif isinstance(f, Or):  # empty disjunction: unsatisfiable
            v = self._new_aux()
            self.clauses += [(v,), (-v,)]
        else:
            self.clauses.append((self._lit(f, env),))

    def renamed(self, atom_vars: Sequence[int], first_aux: int) -> list[tuple[int, ...]]:
        """The clauses with atom i as variable `atom_vars[i]` and aux variable
        j as `first_aux + j`."""
        last = first_aux - 1
        get = _rename_table([atom_vars[s] if s >= 0 else last - s for s in self.slots]).__getitem__
        return [tuple(map(get, cl)) for cl in self.clauses]


def _rename_table(variables: list[int]) -> list[int]:
    """The table renaming variable v (1-based) to `variables[v - 1]`, with
    the negated values in its mirrored upper half, so literal -v indexes
    the negation of v's new variable."""
    return [0, *variables, *[-var for var in reversed(variables)]]


def _against(parts: Sequence[tuple[Formula, str]], theory: GroundClauseSet) -> TheoryQuery:
    encoder = _Encoder()
    for formula, label in parts:
        encoder.add(formula, label)
    # The theory's variables keep their numbers; the plan's other atoms
    # follow them, then the plan's aux variables.
    atoms = tuple(encoder.atoms)
    known = theory.variables
    atom_vars: list[int] = []
    last = theory.num_vars
    for atom in atoms:
        var = known.get(atom)
        if var is None:
            last += 1
            var = last
        atom_vars.append(var)
    plan_clauses = tuple(encoder.renamed(atom_vars, last + 1))
    n = last + encoder.aux_count
    _check_range(plan_clauses, n)
    # The query numbering: the plan's atoms, the theory's other atoms in
    # theory order (the runs between the shared ones), the plan's aux
    # variables, then the theory's.
    theory_atoms = len(theory.atoms)
    order = [0, *atom_vars]
    query_atoms = list(atoms)
    start = 1
    for var in sorted(var for var in atom_vars if var <= theory_atoms):
        order += range(start, var)
        query_atoms += theory.atoms[start - 1:var - 1]
        start = var + 1
    order += range(start, theory_atoms + 1)
    query_atoms += theory.atoms[start - 1:]
    order += range(last + 1, n + 1)
    order += range(theory_atoms + 1, theory.num_vars + 1)
    return TheoryQuery(
        theory, atoms, encoder.aux_count, plan_clauses, tuple(encoder.labels),
        tuple(order), plan_clauses + theory.clauses, tuple(query_atoms),
    )


def compile_fragment(
    parts: Iterable[tuple[Formula, str]],
    agents: Sequence[Term] = (),
    objects: Sequence[Term] = (),
) -> GroundClauseSet:
    """The clause set of labeled closed formulas grounded over `agents` and
    `objects`, numbered on its own: a fragment compiled once and made the
    theory of many queries.

    One pass grounds and encodes (`_Encoder`), giving what `ClauseBuilder`'s
    conversion makes of the ground formulas. Atoms are numbered by first
    occurrence across the parts, then aux variables in encoding order. A
    free variable is not closed: its atom raises `LogicError`. The clauses'
    literal range is checked once, on construction.
    """
    encoder = _Encoder(agents, objects)
    for formula, label in parts:
        encoder.add(formula, label)
    k = len(encoder.atoms)
    return GroundClauseSet(
        tuple(encoder.atoms), encoder.aux_count,
        tuple(encoder.renamed(range(1, k + 1), k + 1)), tuple(encoder.labels),
    )


class ClauseBuilder:
    """Accumulates labeled ground formulas into one query against a theory.

    Conversion is definitional: fresh atoms name compound subformulas instead
    of distributing disjunctions, so size stays linear. Satisfiability, not
    logical equivalence, is the contract. `build` encodes the parts in one
    pass, as `compile_fragment` does but with no domains: a non-ground atom
    raises `LogicError`, and a `ForAll` raises `GroundingError`.

    `build` gives a `TheoryQuery`: the parts followed by the theory
    fragment, solved without renaming the theory. Its `clause_set` is what
    `compile_fragment` makes of the same parts followed by the theory.
    """

    def __init__(self, theory: GroundClauseSet) -> None:
        self._theory = theory
        self._parts: list[tuple[Formula, str]] = []

    def add(self, formula: Formula, label: str = "") -> "ClauseBuilder":
        self._parts.append((formula, label))
        return self

    def build(self) -> TheoryQuery:
        return _against(self._parts, self._theory)
