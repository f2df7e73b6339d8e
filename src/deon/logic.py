"""Formula representation, substitution, finite-domain grounding, clause form.

There are no modal operators here. Possibility, rational belief and rational
requirement are decided as satisfiability queries against an agent's theory
(see `principles`), so a formula is always a plain first-order one.

`ground` builds the ground formula of a quantified one. Clause conversion
does not need it: `compile_fragment` and `ClauseBuilder` compile each
formula once per grounding table into a clause program, a tree of
closures that grounds and encodes it in one run over the scenario's
domains, so neither a theory's nor a query's ground formula is ever
built. `ground`'s last caller in the engine is
`principles.QueryCompiler._action`, which reads the atom keys of a plan's
ground action. All of them take closed formulas, as `scenario.validate`
admits them: a free variable is never closed implicitly, and clause
conversion rejects its atom.

Formulas, clause sets and queries are immutable, and every operation on
them is a pure function, so they can be shared between concurrent
evaluations without coordination. Queries fill in tables derived from their
fields on first read; two threads doing so at once build equal ones. Two
things are mutable. `GroundClauseSet.solver_indexes` is where `sat.solve`
keeps a theory's watch indexes between solves. A `Grounding` is the table
through which clause conversion grounds: it numbers the constants, keys
atoms by those numbers, makes one `Atom` per ground atom and keeps each
formula's clause program. Every fragment keeps the table it was compiled
through, and every query against it is built through that table, which
grows as they are built. So one theory's queries, and those of theories
compiled through one table, must be built in one thread at a time;
solving them may run in any thread. An evaluation's `QueryCompiler` owns
its table and its theories. No value keeps a number of a table where
equality or hashing could see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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


class _AtomCaches:
    """The slots of an atom's cached hash and text, kept in a base class so
    that they are not among `Atom`'s dataclass fields."""

    __slots__ = ("_hash", "_str")


@dataclass(frozen=True, slots=True, init=False)
class Atom(_AtomCaches):
    """A predicate applied to terms. Ground when all args are constants.

    The hash is cached on first use, and so is the text: one evaluation
    makes one atom per ground atom (see `Grounding`), and prints a witness
    atom by name in every query that has it. The hash is the one the
    dataclass would compute, `hash((predicate, args))`, so set and dict
    order is unchanged; a pickled atom leaves both cached values behind.
    An atom has slots and no `__dict__`: its fields are `predicate` and
    `args`, and the two caches live in the slots of `_AtomCaches`, which
    `__init__` sets to None, so that reading an empty cache raises nothing.
    """

    predicate: str
    args: tuple[Term, ...] = ()

    def __init__(self, predicate: str, args: tuple[Term, ...] = ()) -> None:
        set_ = object.__setattr__
        set_(self, "predicate", predicate)
        set_(self, "args", args)
        set_(self, "_hash", None)
        set_(self, "_str", None)

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
    `solver_indexes`, filled in on first use, is where `sat.solve` keeps
    the watch index of these clauses between solves. A fragment that
    `compile_fragment` made also keeps, in `_keys`, the `Grounding` it was
    compiled through and its key table, from each atom's key to its
    variable; neither takes part in equality. A set made any other way, by
    hand, as a `TheoryQuery.clause_set` or as a `dataclasses.replace`
    copy, keeps neither, and no query can be built against it.
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


class Grounding:
    """A grounding table, shared by every clause conversion pass through it:
    `compile_fragment`'s for each fragment compiled through it, and
    `ClauseBuilder`'s for each query built against those fragments.

    It numbers each term once: the agents, then the objects, in domain
    order, then any other term a formula names, on first sight, such as a
    universalization trigger's plan object. An atom's key is its predicate
    followed by its arguments' numbers, and `atom` makes one `Atom` per key
    for the whole evaluation, rejecting one that is not ground, such as an
    atom naming a free variable, when it makes it. It finds the atoms of the
    first fragment compiled through it, its `base`, by that fragment's key
    table, which the fragment keeps anyway, and every other atom it made in
    `atoms`, so the largest table of atoms is not kept twice. The pass that
    compiles the base keeps none of the atoms it makes in `atoms`: its own
    key table finds them until it becomes the base.

    `program` compiles a formula into its clause program (`_Compiler`) the
    first time a pass encodes it, and keeps the program by the formula's
    identity, beside the formula itself, so that no other formula can take
    its id. Every later pass through the table that encodes the same
    formula object runs the same program: the physics that several
    believing agents' theories share, or a plan's reasons in each of its
    pair queries, compile once per table.

    A table grows as fragments are compiled through it and as queries are
    built against them, so no two threads may ground through it at once:
    the queries against the theories compiled through one table are built
    in one thread at a time. `QueryCompiler` makes one table per evaluation
    and owns the theories compiled through it.
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
        # Each formula's program by the formula's id, with the formula it was compiled from.
        self.programs: dict[int, tuple[Formula, _Step, Sequence[int | str]]] = {}

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

    def atom(self, key: tuple, atom: Atom | None = None) -> Atom:
        """The one atom of `key`: found in `atoms` or the base fragment, or
        else made, from `atom`, the atom keyed, if given, and kept in
        `atoms` once the table has a base."""
        known = self.atoms.get(key)
        if known is not None:
            return known
        base = self.base
        if base is not None:
            var = base[0].get(key)
            if var is not None:
                return base[1][var - 1]
        if atom is None:
            atom = Atom(key[0], tuple(map(self.terms.__getitem__, key[1:])))
        if self.variables and not atom.is_ground():
            raise LogicError(f"non-ground atom {atom} in clause conversion")
        if base is not None:
            self.atoms[key] = atom
        return atom

    def program(self, f: Formula) -> tuple[Formula, _Step, Sequence[int | str]]:
        """The clause program of formula `f`, compiled on first use: `f`,
        the step asserting it and the frame to run that step in."""
        program = self.programs.get(id(f))
        if program is None:
            program = self.programs[id(f)] = (f, *_Compiler(self).program(f))
        return program


#: A compiled formula node: run on an encoder and a frame (see `_Compiler`),
#: it emits the node's clauses and returns its literal, or None for an assertion.
_Step = Callable[["_Encoder", list], "int | None"]


class _Compiler:
    """Compiles one formula, in one pass, into its clause program: a tree of
    closures (`_Step`s), one per formula node, each run on the encoder that
    runs the program and on the program's frame.

    The frame holds, at index d, the number of the constant that the binder
    at depth d (the outermost being 0) is bound to in the instance being
    run, and, counted from its end, the program's predicates and constant
    numbers. An atom under a binder compiles to its key builder, an
    `itemgetter` of its predicate and its arguments off the frame, and an
    atom under none to its constant key; either step returns the atom's id,
    taken on first sight (`_Encoder._new_var`). A negated atom is the same
    step with the sign turned. `Not`, `And`, `Or` and `Implies` compile to
    steps that run their parts' steps in order, then emit the clauses
    defining a new aux variable as `_Encoder._and` and `_or` would, the
    common case of two parts written out without a list, and return it. A
    quantifier compiles to a loop that sets its frame slot to each constant
    of its domain in turn and runs its body's step. At the top level
    (`assertion`), a conjunction or quantifier runs its parts' assertions,
    a disjunction or implication emits one clause of its parts' literals,
    and any other node a unit clause of its literal.

    So a program emits, when run, the clauses of encoding the ground
    formula, in its order and with its aux numbering. Compiling raises
    nothing: a quantifier over an empty domain compiles to a step that
    raises `GroundingError`, and a node that is no formula to one that
    raises `LogicError`, when the run reaches it, as an atom left
    non-ground does when it is met (`Grounding.atom`).

    A step takes what it reads as parameter defaults, not as closed-over
    cells: each step is then one function and its tuple of defaults, which
    an evaluation keeps as long as its table, and reads them as locals.
    """

    def __init__(self, grounding: Grounding) -> None:
        self.grounding = grounding
        self.depth = 0  # the frame's slots for bound variables
        self.values: list = []  # the frame's predicates and constant numbers, from its end
        self.slots: dict = {}  # each of those values' frame index

    def program(self, f: Formula) -> tuple[_Step, Sequence[int | str]]:
        """The step asserting `f` and the frame it runs in; a program with
        no binder and no key to build reads no frame."""
        step = self.assertion(f, {}, 0)
        if not (self.depth or self.values):
            return step, ()
        return step, [0] * self.depth + self.values[::-1]

    def _slot(self, value: str | int) -> int:
        index = self.slots.get(value)
        if index is None:
            self.values.append(value)
            index = self.slots[value] = -len(self.values)
        return index

    def _atom(self, atom: Atom, scope: dict[Term, int], sign: int, unit: bool = False) -> _Step:
        """The step returning `atom`'s literal of `sign`, or with `unit`
        emitting it as a unit clause."""
        if not scope or scope.keys().isdisjoint(atom.args):
            key = self.grounding.key(atom)
            if unit:
                def constant_unit(encoder: _Encoder, frame: list, key=key, atom=atom,
                                  sign=sign) -> None:
                    var = encoder.ids.get(key)
                    var = encoder._new_var(key, atom) if var is None else var
                    encoder.clauses.append((sign * var,))

                return constant_unit

            def constant(encoder: _Encoder, frame: list, key=key, atom=atom, sign=sign) -> int:
                var = encoder.ids.get(key)
                return sign * (encoder._new_var(key, atom) if var is None else var)

            return constant
        number, slot = self.grounding.number, self._slot
        build = itemgetter(slot(atom.predicate), *[
            depth if (depth := scope.get(t)) is not None else slot(number(t)) for t in atom.args
        ])
        if unit:
            def bound_unit(encoder: _Encoder, frame: list, build=build, sign=sign) -> None:
                key = build(frame)
                var = encoder.ids.get(key)
                var = encoder._new_var(key) if var is None else var
                encoder.clauses.append((sign * var,))

            return bound_unit

        def bound(encoder: _Encoder, frame: list, build=build, sign=sign) -> int:
            key = build(frame)
            var = encoder.ids.get(key)
            return sign * (encoder._new_var(key) if var is None else var)

        return bound

    def _forall(self, node: ForAll, scope: dict[Term, int], depth: int, asserted: bool) -> _Step:
        """The loop of quantifier `node` over its domain: it runs its body's
        assertion per constant or, unless `asserted`, returns the
        conjunction of its body's literals. Over an empty domain, a step
        raising `GroundingError`."""
        try:
            domain = _domain(node.var, self.grounding.agents, self.grounding.objects)
        except GroundingError as error:
            return _refusal(GroundingError, str(error))
        compile = self.assertion if asserted else self.literal
        body = compile(node.body, {**scope, node.var: depth}, depth + 1)
        self.depth = max(self.depth, depth + 1)
        if asserted:
            def forall(encoder: _Encoder, frame: list, domain=domain, depth=depth,
                       body=body) -> None:
                for frame[depth] in domain:
                    body(encoder, frame)

            return forall

        def conjunction(encoder: _Encoder, frame: list, domain=domain, depth=depth,
                        body=body) -> int:
            lits = []
            for frame[depth] in domain:
                lits.append(body(encoder, frame))
            return encoder._and(lits)

        return conjunction

    def literal(self, node: Formula, scope: dict[Term, int], depth: int) -> _Step:
        """The step of `node`, met under `depth` binders whose variables
        `scope` maps to their depths, that returns its literal."""
        if isinstance(node, AtomF):
            return self._atom(node.atom, scope, 1)
        if isinstance(node, Not):
            return self.negation(node.body, scope, depth)
        if isinstance(node, And):
            return _conjunction([self.literal(p, scope, depth) for p in node.parts])
        if isinstance(node, Or):
            return _disjunction([self.literal(p, scope, depth) for p in node.parts])
        if isinstance(node, Implies):
            return _disjunction([self.negation(node.antecedent, scope, depth),
                                 self.literal(node.consequent, scope, depth)])
        if isinstance(node, ForAll):
            return self._forall(node, scope, depth, asserted=False)
        return _refusal(LogicError, f"cannot encode {type(node).__name__} node")

    def negation(self, node: Formula, scope: dict[Term, int], depth: int) -> _Step:
        """The step returning the negated literal of `node`."""
        if isinstance(node, AtomF):
            return self._atom(node.atom, scope, -1)
        if isinstance(node, Not):
            return self.literal(node.body, scope, depth)
        step = self.literal(node, scope, depth)
        return lambda encoder, frame, step=step: -step(encoder, frame)

    def assertion(self, node: Formula, scope: dict[Term, int], depth: int) -> _Step:
        """The step of `node`, met at the top level, that emits its clauses
        and returns None: conjunctions and quantifiers split into their
        parts, and a disjunction or implication becomes one clause."""
        if isinstance(node, AtomF):
            return self._atom(node.atom, scope, 1, unit=True)
        if isinstance(node, Not) and isinstance(node.body, AtomF):
            return self._atom(node.body.atom, scope, -1, unit=True)
        if isinstance(node, And):
            steps = [self.assertion(p, scope, depth) for p in node.parts]
            if len(steps) == 1:
                return steps[0]

            def conjunction(encoder: _Encoder, frame: list, steps=steps) -> None:
                for step in steps:
                    step(encoder, frame)

            return conjunction
        if isinstance(node, ForAll):
            return self._forall(node, scope, depth, asserted=True)
        if isinstance(node, Implies):
            steps = [self.negation(node.antecedent, scope, depth),
                     self.literal(node.consequent, scope, depth)]
        elif isinstance(node, Or) and node.parts:
            steps = [self.literal(p, scope, depth) for p in node.parts]
        elif isinstance(node, Or):  # empty disjunction: unsatisfiable
            return _unsatisfiable
        else:
            return lambda encoder, frame, step=self.literal(node, scope, depth): (
                encoder.clauses.append((step(encoder, frame),))
            )
        if len(steps) == 2:
            return lambda encoder, frame, first=steps[0], second=steps[1]: (
                encoder.clauses.append((first(encoder, frame), second(encoder, frame)))
            )
        return lambda encoder, frame, steps=steps: encoder.clauses.append(
            tuple([step(encoder, frame) for step in steps])
        )


def _conjunction(steps: list[_Step]) -> _Step:
    if len(steps) == 1:
        return steps[0]
    if len(steps) != 2:
        return lambda encoder, frame, steps=steps: (
            encoder._and([step(encoder, frame) for step in steps])
        )

    def conjunction(encoder: _Encoder, frame: list, first=steps[0], second=steps[1]) -> int:
        a = first(encoder, frame)
        b = second(encoder, frame)
        v = encoder._new_aux()
        encoder.clauses += ((-v, a), (-v, b), (v, -a, -b))
        return v

    return conjunction


def _disjunction(steps: list[_Step]) -> _Step:
    if len(steps) == 1:
        return steps[0]
    if len(steps) != 2:
        return lambda encoder, frame, steps=steps: (
            encoder._or([step(encoder, frame) for step in steps])
        )

    def disjunction(encoder: _Encoder, frame: list, first=steps[0], second=steps[1]) -> int:
        a = first(encoder, frame)
        b = second(encoder, frame)
        v = encoder._new_aux()
        encoder.clauses += ((-v, a, b), (v, -a), (v, -b))
        return v

    return disjunction


def _unsatisfiable(encoder: _Encoder, frame: list) -> None:
    """The step of an empty disjunction at the top level."""
    v = encoder._new_aux()
    encoder.clauses += ((v,), (-v,))


def _refusal(kind: type[LogicError], text: str) -> _Step:
    def refusal(encoder: _Encoder, frame: list, kind=kind, text=text) -> None:
        raise kind(text)

    return refusal


class _Encoder:
    """Grounding fused with definitional clause encoding, through one
    `Grounding`.

    `add` runs the formula's clause program (`Grounding.program`), which
    grounds and encodes it at once: the clauses, their order and labels
    are those of encoding the ground formula, which is never built. A
    quantifier encodes as `conj` of its instances in domain order, and at
    the top level splits like `And`. An empty domain raises
    `GroundingError`, and an atom left non-ground, such as one naming a
    free variable, `LogicError`, each when the run reaches it.

    Atoms take provisional ids on first sight, in `ids` by key, and aux
    variables in encoding order: `places[p - 1]` is id p's atom index in
    `atoms`, or `~j` for aux variable j. `renamed` gives the clauses in the
    caller's numbering, one table lookup per literal.
    """

    __slots__ = ("grounding", "ids", "atoms", "places", "aux_count", "clauses", "labels")

    def __init__(self, grounding: Grounding) -> None:
        self.grounding = grounding
        self.ids: dict[tuple, int] = {}
        self.atoms: list[Atom] = []
        self.places: list[int] = []
        self.aux_count = 0
        self.clauses: list[tuple[int, ...]] = []
        self.labels: list[str] = []

    def add(self, f: Formula, label: str) -> None:
        before = len(self.clauses)
        _, step, frame = self.grounding.program(f)
        step(self, frame)
        self.labels += [label] * (len(self.clauses) - before)

    def _new_var(self, key: tuple, atom: Atom | None = None) -> int:
        """The id of the atom of `key`, met for the first time."""
        atom = self.grounding.atom(key, atom)
        self.places.append(len(self.atoms))
        self.atoms.append(atom)
        var = self.ids[key] = len(self.places)
        return var

    def _new_aux(self) -> int:
        self.places.append(~self.aux_count)
        self.aux_count += 1
        return len(self.places)

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


def _against(parts: Sequence[tuple[Formula, str]], theory: GroundClauseSet) -> TheoryQuery:
    if theory._keys is None:
        raise LogicError(
            "a query's theory has no grounding table: compile the theory with compile_fragment"
        )
    grounding, known = theory._keys
    encoder = _Encoder(grounding)
    for formula, label in parts:
        encoder.add(formula, label)
    # The theory's variables keep their numbers; the plan's other atoms
    # follow them, then the plan's aux variables. The plan is grounded
    # through the theory's table, so each plan atom is looked up by its key.
    atoms = tuple(encoder.atoms)
    atom_vars: list[int] = []
    last = theory.num_vars
    for key in encoder.ids:
        var = known.get(key)
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
    parts: Iterable[tuple[Formula, str]], grounding: Grounding | None = None
) -> GroundClauseSet:
    """The clause set of labeled closed formulas grounded through
    `grounding` over its domains, numbered on its own: a fragment compiled
    once and made the theory of many queries. With no table, the default,
    a fresh `Grounding()` without domains is used, so every quantifier is
    refused; `Grounding(agents, objects)` gives the domains.

    Each part's clause program, compiled through the table the first time
    a pass through it encodes that formula object (`Grounding.program`),
    grounds and encodes the part in one run (`_Encoder`), giving what
    `ClauseBuilder`'s conversion makes of the ground formulas. Atoms are
    numbered by first occurrence across the parts, then aux variables in
    encoding order. A free variable is not closed: its atom raises
    `LogicError`. The clauses' literal range is checked once, on
    construction.

    The fragment keeps its table and the encoder's key table, rewritten to
    map each atom's key to its variable, so a `ClauseBuilder` against it
    grounds through the same table and maps its plan atoms onto the
    fragment by key. The first fragment compiled through a table becomes
    its base.
    """
    if grounding is None:
        grounding = Grounding()
    encoder = _Encoder(grounding)
    for formula, label in parts:
        encoder.add(formula, label)
    k = len(encoder.atoms)
    table = encoder.table(range(1, k + 1), k + 1)
    fragment = GroundClauseSet(
        tuple(encoder.atoms), encoder.aux_count, tuple(encoder.renamed(table)),
        tuple(encoder.labels),
    )
    # Each key's provisional id becomes its variable, the very int the clauses hold.
    ids = encoder.ids
    for key, p in ids.items():
        ids[key] = table[p]
    object.__setattr__(fragment, "_keys", (grounding, ids))
    if grounding.base is None:
        grounding.base = ids, fragment.atoms
    return fragment


class ClauseBuilder:
    """Accumulates labeled closed formulas into one query against a theory.

    Conversion is definitional: fresh atoms name compound subformulas instead
    of distributing disjunctions, so size stays linear. Satisfiability, not
    logical equivalence, is the contract. `build` grounds the parts through
    the theory's own `Grounding`, over its domains, and encodes them in the
    same pass, as `compile_fragment` does, running each part's clause
    program, which the table compiles once per formula object. So a part's
    clauses, labels, atoms and aux variables are those of building
    `ground(part, agents, objects)`, which is never built, and each atom
    the parts share with the theory is the theory's own `Atom`. A
    quantifier over an empty domain raises `GroundingError`, and an atom
    left non-ground, such as one naming a free variable, `LogicError`. So
    does a theory that `compile_fragment` did not make, for it has no
    table.

    `build` gives a `TheoryQuery`: the parts followed by the theory
    fragment, solved without renaming the theory. Its `clause_set` is what
    `compile_fragment` makes of the same parts followed by the theory.
    Building grows the theory's table, so one theory's queries are built
    in one thread at a time; a built query may be solved in any thread.
    """

    def __init__(self, theory: GroundClauseSet) -> None:
        self._theory = theory
        self._parts: list[tuple[Formula, str]] = []

    def add(self, formula: Formula, label: str = "") -> "ClauseBuilder":
        self._parts.append((formula, label))
        return self

    def build(self) -> TheoryQuery:
        return _against(self._parts, self._theory)
