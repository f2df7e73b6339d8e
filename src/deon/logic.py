"""Formula representation, substitution, finite-domain grounding, clause form.

There are no modal operators here. Possibility, rational belief and rational
requirement are decided as satisfiability queries against an agent's theory
(see `principles`), so a formula is always a plain first-order one.

`ground` builds the ground formula of a quantified one. Clause conversion
does not need it: `compile_fragment` and `ClauseBuilder` ground and encode
in one pass over the scenario's domains, so neither a theory's nor a
query's ground formula is ever built. `ground`'s last caller in the engine
is `principles.QueryCompiler._action`, which reads the atom set of a
plan's ground action. All of them take closed formulas, as
`scenario.validate` admits them: a free variable is never closed
implicitly, and clause conversion rejects its atom.

Formulas, clause sets and queries are immutable, and every operation on
them is a pure function, so they can be shared between concurrent
evaluations without coordination. Clause sets and queries fill in tables
derived from their fields on first read; two threads doing so at once build
equal ones. Two things are mutable. `GroundClauseSet.solver_indexes` is
where `sat.solve` keeps a theory's watch indexes between solves. A
`Grounding` is the table of one evaluation, through which all of its
clause conversion passes ground: it numbers the constants, keys atoms by
those numbers and makes one `Atom` per ground atom. It grows as the
evaluation grounds, so it belongs to that evaluation alone; no value keeps
a number of it where equality or hashing could see it.
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
        return str(self.name)


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

    The hash is cached on first use, and so is the text: one evaluation
    makes one atom per ground atom (see `Grounding`), and prints a witness
    atom by name in every query that has it. The hash is the one the
    dataclass would compute, `hash((predicate, args))`, so set and dict
    order is unchanged; a pickled atom leaves both cached values behind.
    """

    predicate: str
    args: tuple[Term, ...] = ()
    _hash = None  # the cached hash; not a field, since it has no annotation
    _str = None  # the cached text, likewise

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
        text = self._str
        if text is None:
            name = self.predicate.lstrip("@")
            text = f"{name}({', '.join(str(t) for t in self.args)})" if self.args else name
            object.__setattr__(self, "_str", text)
        return text


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


def _domain(var: Term, agents: Sequence, objects: Sequence) -> Sequence:
    """The domain that the quantified variable `var` ranges over, by its
    sort: the constants, or their numbers in a `Grounding`."""
    domain = agents if var.sort == AGENT else objects
    if not domain:
        raise GroundingError(f"empty {var.sort} domain for quantified variable {var.name}")
    return domain


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
            domain = _domain(node.var, agents, objects)
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
    is nonzero and names one of the variables. The fields are immutable.
    Two things are filled in on first use: `variables`, a lookup table
    derived from `atoms`, and `solver_indexes`, where `sat.solve` keeps the
    watch index of these clauses between solves. A fragment compiled
    through an evaluation's `Grounding` also keeps that table and its key
    table, from each atom's key to its variable, in `_keys`; neither takes
    part in equality.
    """

    atoms: tuple[Atom, ...]
    aux_count: int
    clauses: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] = ()
    _keys = None  # (grounding, key table), set by `compile_fragment`; not a field

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

    @cached_property
    def solver_indexes(self) -> list:
        """The watch indexes of these clauses not in use by a solve. A solve
        pops one, or builds one if there is none, and appends it back
        restored, so two solves never share one (see `sat.solve`)."""
        return []

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
        theory, plan_aux, new_atoms = self.theory, self.plan_aux_count, self._new_atoms
        theory_atoms, first_new = len(theory.atoms), theory.num_vars + 1
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
    def _new_atoms(self) -> tuple[Atom, ...]:
        """The plan's atoms the theory lacks, in solver order: those whose
        solver variable comes after the theory's."""
        last = self.theory.num_vars
        return tuple([atom for atom, var in zip(self.plan_atoms, self.order[1:]) if var > last])

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


class _Slots(Formula):
    """A compiled atom: `predicate` over the frame's values at `slots`."""

    __slots__ = ("predicate", "slots")

    def __init__(self, predicate: str, slots: tuple[int, ...]) -> None:
        self.predicate = predicate
        self.slots = slots


class _Bind(Formula):
    """A compiled quantifier: `body` once per constant of `var`'s domain,
    with the constant's number pushed on the frame."""

    __slots__ = ("var", "body")

    def __init__(self, var: Term, body: Formula) -> None:
        self.var = var
        self.body = body


class Grounding:
    """The grounding table of one evaluation, shared by each of its clause
    conversion passes: `compile_fragment`'s and `ClauseBuilder`'s.

    It numbers each term once: the agents, then the objects, in domain
    order, then any other term a formula names, on first sight, such as a
    universalization trigger's plan object. An atom's key is its predicate
    followed by its arguments' numbers, and `atom` makes one `Atom` per key
    for the whole evaluation, rejecting one that is not ground, such as an
    atom naming a free variable, when it makes it. It finds the atoms of the
    first fragment compiled through it, its `base`, by that fragment's key
    table, which the fragment keeps anyway, and every other atom it made in
    `atoms`, so the largest table of atoms is not kept twice.

    `template` compiles a quantifier once for all of its instances. An atom
    becomes its predicate and one slot per argument (`_Slots`): n for the
    term numbered n, or -k for the variable of the binder k levels out
    from the atom, the innermost being -1. The frame a template is walked
    in holds every term's number at its own index, and each binder pushes
    its constant on it while the walk is inside, so an instance's key is
    read off the frame by slot.

    A table grows as its evaluation grounds, so it belongs to that
    evaluation: `QueryCompiler` makes one, and no thread shares it.
    """

    def __init__(self, agents: Sequence[Term] = (), objects: Sequence[Term] = ()) -> None:
        self.terms: list[Term] = []
        self.numbers: dict[Term, int] = {}
        self.variables = False  # whether a variable has a number
        self.agents = [self.number(t) for t in agents]
        self.objects = [self.number(t) for t in objects]
        self.atoms: dict[tuple, Atom] = {}
        # The key table and atoms of the first fragment compiled through the table.
        self.base: tuple[dict[tuple, int], Sequence[Atom]] | None = None

    def number(self, term: Term) -> int:
        n = self.numbers.get(term)
        if n is None:
            n = self.numbers[term] = len(self.terms)
            self.terms.append(term)
            self.variables = self.variables or term.is_var
        return n

    def key(self, atom: Atom) -> tuple:
        """The key of `atom`, met where no variable is bound."""
        try:
            return (atom.predicate, *map(self.numbers.__getitem__, atom.args))
        except KeyError:
            return (atom.predicate, *map(self.number, atom.args))

    def atom(self, key: tuple, atom: Atom | None = None, keep: bool = True) -> Atom:
        """The one atom of `key`: found in `atoms` or the base fragment, or
        else made, from `atom`, the atom keyed, if given, and kept in
        `atoms` if `keep`."""
        known = self.atoms.get(key)
        if known is not None:
            return known
        if self.base is not None:
            var = self.base[0].get(key)
            if var is not None:
                return self.base[1][var - 1]
        if atom is None:
            atom = Atom(key[0], tuple(map(self.terms.__getitem__, key[1:])))
        if self.variables and not atom.is_ground():
            raise LogicError(f"non-ground atom {atom} in clause conversion")
        if keep:
            self.atoms[key] = atom
        return atom

    def template(self, f: ForAll) -> tuple[_Bind, list[int]]:
        """Quantifier `f`, met where no variable is bound, compiled, and a
        frame to walk it in: every term's number at its own index."""
        bind = self._compiled(f, {}, 0)
        return bind, list(range(len(self.terms)))

    def _compiled(self, node: Formula, scope: dict[Term, int], level: int) -> Formula:
        """`node`, met under `level` binders, compiled; `scope` maps their
        variables to their levels, an inner binder shadowing an outer one of
        its variable. Compiling raises nothing: a node that is no formula
        stays as it is, for the walk to reject."""
        if isinstance(node, AtomF):
            return _Slots(node.atom.predicate, tuple([
                scope[t] - level if t in scope else self.number(t) for t in node.atom.args
            ]))
        if isinstance(node, Not):
            return Not(self._compiled(node.body, scope, level))
        if isinstance(node, And):
            return And(tuple([self._compiled(p, scope, level) for p in node.parts]))
        if isinstance(node, Or):
            return Or(tuple([self._compiled(p, scope, level) for p in node.parts]))
        if isinstance(node, Implies):
            return Implies(self._compiled(node.antecedent, scope, level),
                           self._compiled(node.consequent, scope, level))
        if isinstance(node, ForAll):
            return _Bind(node.var, self._compiled(node.body, {**scope, node.var: level}, level + 1))
        return node


class _Encoder:
    """Grounding fused with definitional clause encoding, through one
    `Grounding`.

    `add` walks a formula and emits its clauses at once. An atom met where
    no variable is bound is keyed as it stands (`Grounding.key`); a
    quantifier met there is compiled (`Grounding.template`), and its
    instances are walked with the frame of bound values, each atom keyed by
    its slots. A quantifier encodes as `conj` of its instances in domain
    order, and at the top level splits like `And`, so the clauses, their
    order and labels are those of encoding the ground formula, which is
    never built. An empty domain raises `GroundingError`, and an atom left
    non-ground, such as one naming a free variable, `LogicError`, each when
    the walk reaches it.

    Atoms take provisional ids on first sight, in `ids` by key, and aux
    variables in encoding order: `places[p - 1]` is id p's atom index in
    `atoms`, or `~j` for aux variable j. `renamed` gives the clauses in the
    caller's numbering, one table lookup per literal. The pass that compiles
    the table's base fragment makes its atoms without `keep`ing them in the
    table, which finds them through the fragment once it is compiled.
    """

    def __init__(self, grounding: Grounding, keep: bool = True) -> None:
        self.grounding = grounding
        self.keep = keep  # whether the table keeps the atoms this pass makes
        self.ids: dict[tuple, int] = {}
        self.atoms: list[Atom] = []
        self.places: list[int] = []
        self.aux_count = 0
        self.clauses: list[tuple[int, ...]] = []
        self.labels: list[str] = []

    def add(self, f: Formula, label: str) -> None:
        before = len(self.clauses)
        self._assert(f, [])
        self.labels += [label] * (len(self.clauses) - before)

    def _var(self, key: tuple, atom: Atom | None = None) -> int:
        var = self.ids.get(key)
        if var is None:
            atom = self.grounding.atom(key, atom, self.keep)
            self.places.append(len(self.atoms))
            self.atoms.append(atom)
            var = self.ids[key] = len(self.places)
        return var

    def _new_aux(self) -> int:
        self.places.append(~self.aux_count)
        self.aux_count += 1
        return len(self.places)

    def _lit(self, f: Formula, frame: list[int]) -> int:
        if isinstance(f, _Slots):
            return self._var((f.predicate, *map(frame.__getitem__, f.slots)))
        if isinstance(f, AtomF):
            return self._var(self.grounding.key(f.atom), f.atom)
        if isinstance(f, Not):
            return -self._lit(f.body, frame)
        if isinstance(f, Or):
            return self._or([self._lit(p, frame) for p in f.parts])
        if isinstance(f, Implies):
            return self._or([-self._lit(f.antecedent, frame), self._lit(f.consequent, frame)])
        if isinstance(f, And):
            return self._and([self._lit(p, frame) for p in f.parts])
        if isinstance(f, _Bind):
            body, lits = f.body, []
            domain = _domain(f.var, self.grounding.agents, self.grounding.objects)
            frame.append(0)
            for c in domain:
                frame[-1] = c
                lits.append(self._lit(body, frame))
            frame.pop()
            return self._and(lits)
        if isinstance(f, ForAll):
            return self._lit(*self.grounding.template(f))
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

    def _assert(self, f: Formula, frame: list[int]) -> None:
        # Keep top-level structure flat: conjunctions and quantifiers split
        # into their parts and a top disjunction/implication becomes one clause.
        if isinstance(f, And):
            for p in f.parts:
                self._assert(p, frame)
        elif isinstance(f, _Bind):
            body = f.body
            domain = _domain(f.var, self.grounding.agents, self.grounding.objects)
            frame.append(0)
            for c in domain:
                frame[-1] = c
                self._assert(body, frame)
            frame.pop()
        elif isinstance(f, ForAll):
            self._assert(*self.grounding.template(f))
        elif isinstance(f, Implies):
            self.clauses.append((-self._lit(f.antecedent, frame), self._lit(f.consequent, frame)))
        elif isinstance(f, Or) and f.parts:
            self.clauses.append(tuple([self._lit(p, frame) for p in f.parts]))
        elif isinstance(f, Or):  # empty disjunction: unsatisfiable
            v = self._new_aux()
            self.clauses += [(v,), (-v,)]
        else:
            self.clauses.append((self._lit(f, frame),))

    def table(self, atom_vars: Sequence[int], first_aux: int) -> list[int]:
        """The renaming of provisional ids with atom i as variable
        `atom_vars[i]` and aux variable j as `first_aux + j`."""
        last = first_aux - 1
        return _rename_table([atom_vars[s] if s >= 0 else last - s for s in self.places])

    def renamed(self, table: list[int]) -> list[tuple[int, ...]]:
        """The clauses renamed by `table`."""
        get = table.__getitem__
        return [tuple(map(get, cl)) for cl in self.clauses]


def _rename_table(variables: list[int]) -> list[int]:
    """The table renaming variable v (1-based) to `variables[v - 1]`, with
    the negated values in its mirrored upper half, so literal -v indexes
    the negation of v's new variable."""
    return [0, *variables, *[-var for var in reversed(variables)]]


def _against(
    parts: Sequence[tuple[Formula, str]], theory: GroundClauseSet, grounding: Grounding
) -> TheoryQuery:
    encoder = _Encoder(grounding)
    for formula, label in parts:
        encoder.add(formula, label)
    # The theory's variables keep their numbers; the plan's other atoms
    # follow them, then the plan's aux variables. A theory compiled through
    # the same table is looked up by the plans' keys, any other by atom.
    atoms = tuple(encoder.atoms)
    keys = theory._keys
    if keys is not None and keys[0] is grounding:
        known, plan = keys[1], encoder.ids
    else:
        known, plan = theory.variables, atoms
    atom_vars: list[int] = []
    last = theory.num_vars
    for item in plan:
        var = known.get(item)
        if var is None:
            last += 1
            var = last
        atom_vars.append(var)
    plan_clauses = tuple(encoder.renamed(encoder.table(atom_vars, last + 1)))
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
    *,
    grounding: Grounding | None = None,
) -> GroundClauseSet:
    """The clause set of labeled closed formulas grounded over `agents` and
    `objects`, numbered on its own: a fragment compiled once and made the
    theory of many queries.

    One pass grounds and encodes (`_Encoder`), giving what `ClauseBuilder`'s
    conversion makes of the ground formulas. Atoms are numbered by first
    occurrence across the parts, then aux variables in encoding order. A
    free variable is not closed: its atom raises `LogicError`. The clauses'
    literal range is checked once, on construction.

    `grounding`, an evaluation's table, replaces the domains: the fragment
    is grounded through it over its domains, and keeps the encoder's key
    table, rewritten to map each atom's key to its variable, so a
    `ClauseBuilder` on the same table maps its plan atoms onto the fragment
    by key. The first fragment compiled through a table becomes its base.
    """
    base = grounding is not None and grounding.base is None
    encoder = _Encoder(Grounding(agents, objects) if grounding is None else grounding, not base)
    for formula, label in parts:
        encoder.add(formula, label)
    k = len(encoder.atoms)
    table = encoder.table(range(1, k + 1), k + 1)
    fragment = GroundClauseSet(
        tuple(encoder.atoms), encoder.aux_count, tuple(encoder.renamed(table)),
        tuple(encoder.labels),
    )
    if grounding is not None:
        # Each key's provisional id becomes its variable, the very int the clauses hold.
        ids = encoder.ids
        for key, p in ids.items():
            ids[key] = table[p]
        object.__setattr__(fragment, "_keys", (grounding, ids))
        if base:
            grounding.base = ids, fragment.atoms
    return fragment


class ClauseBuilder:
    """Accumulates labeled closed formulas into one query against a theory.

    Conversion is definitional: fresh atoms name compound subformulas instead
    of distributing disjunctions, so size stays linear. Satisfiability, not
    logical equivalence, is the contract. `build` grounds the parts over
    `agents` and `objects` and encodes them in the same pass, as
    `compile_fragment` does, so a part's clauses, labels, atoms and aux
    variables are those of building `ground(part, agents, objects)`, which
    is never built. A quantifier over an empty domain raises
    `GroundingError`, and an atom left non-ground, such as one naming a free
    variable, `LogicError`. With no domains, the default, every part must
    already be ground.

    `grounding`, an evaluation's table, replaces the domains: the parts are
    grounded through it, and their atoms are mapped onto a theory compiled
    through the same table by key, onto any other theory by atom.

    `build` gives a `TheoryQuery`: the parts followed by the theory
    fragment, solved without renaming the theory. Its `clause_set` is what
    `compile_fragment` makes of the same parts followed by the theory.
    """

    def __init__(
        self,
        theory: GroundClauseSet,
        agents: Sequence[Term] = (),
        objects: Sequence[Term] = (),
        *,
        grounding: Grounding | None = None,
    ) -> None:
        self._theory = theory
        self._grounding = Grounding(agents, objects) if grounding is None else grounding
        self._parts: list[tuple[Formula, str]] = []

    def add(self, formula: Formula, label: str = "") -> "ClauseBuilder":
        self._parts.append((formula, label))
        return self

    def build(self) -> TheoryQuery:
        return _against(self._parts, self._theory, self._grounding)
