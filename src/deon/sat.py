"""Satisfiability of ground clause sets with witnesses and conflict subsets.

The solver is depth-first search with chronological backtracking and a fixed
branching order (lowest unassigned variable, true first); the decision
budget counts decisions and flips. Unit propagation uses two watched
literals per clause, as in Chaff and MiniSat, but it evaluates clauses in
the order of a Gauss-Seidel sweep over the clause list. That order decides
which clause propagates each variable and which conflict is found first, so
conflict explanations do not depend on how propagation is implemented.
Every witness is checked against every clause before it is returned; the
check reads the search's own table of literal values, so no model is built
for it.

Inputs and results are immutable. The one state kept between runs is each
theory's watch index, in `GroundClauseSet.solver_indexes`: a solve borrows
it, extends it with its own clauses, and gives it back restored, so a
query's setup scales with its plan clauses, not with its theory (see
`solve` for why reusing the index changes no step of the search).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import repeat

from .logic import Atom, GroundClauseSet, LogicError, TheoryQuery

DEFAULT_BUDGET = 10**6


class BudgetExhausted(Exception):
    """The decision budget ran out before the solver reached an answer."""

    def __init__(self, decisions: int):
        super().__init__(f"decision budget exhausted after {decisions} decisions")
        self.decisions = decisions


@dataclass(frozen=True)
class Model:
    """A total truth assignment over a clause set's variable universe."""

    values: tuple[bool, ...]

    def satisfies(self, cs: GroundClauseSet | TheoryQuery) -> bool:
        """Whether every clause of `cs.clauses` holds, read in the numbering
        the clauses are stored in: a `TheoryQuery` stores its theory's, not
        the query numbering `solve` returns its witness in."""
        # truth[lit] is the value of literal lit; a negative literal indexes
        # the mirrored upper half, which holds the negated values.
        if len(self.values) < cs.num_vars:
            raise LogicError("model does not cover the clause set's variables")
        truth = [False, *self.values, *[not v for v in reversed(self.values)]]
        get = truth.__getitem__
        return all(any(map(get, cl)) for cl in cs.clauses)

    def atom_values(self, cs: GroundClauseSet | TheoryQuery) -> dict[Atom, bool]:
        """The assignment restricted to real atoms (definitional vars dropped)."""
        return {atom: self.values[i] for i, atom in enumerate(cs.atoms)}


@dataclass(frozen=True)
class ConflictExplanation:
    """Clauses touched on the refutation path; jointly unsatisfiable, not minimal."""

    clause_indices: tuple[int, ...]

    def render(self, cs: GroundClauseSet | TheoryQuery) -> list[str]:
        lines = []
        for i in self.clause_indices:
            label = cs.label_of(i)
            text = cs.clause_str(i)
            lines.append(f"{label}: {text}" if label else text)
        return lines


@dataclass(frozen=True)
class SatResult:
    """A verdict with its witness or conflict. `decisions` and
    `propagations` count the search's decisions (flips included) and the
    variables unit propagation set; they take no part in equality."""

    satisfiable: bool
    model: Model | None = None
    conflict: ConflictExplanation | None = None
    decisions: int = field(default=0, compare=False)
    propagations: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.satisfiable and self.model is None:
            raise LogicError("satisfiable result requires a witness model")
        if not self.satisfiable and self.conflict is None:
            raise LogicError("unsatisfiable result requires a conflict explanation")


def _witness(value: list[bool | None], clauses: tuple[tuple[int, ...], ...],
             order: Sequence[int]) -> Model:
    """The model of a complete assignment, read in `order`, once it is
    checked against every clause. `value[lit]` is the truth of literal
    `lit` (a negative literal indexes the upper half of the list), the
    layout of `Model.satisfies`' table, so the check reads it in place."""
    if not all(map(any, map(map, repeat(value.__getitem__), clauses))):
        raise LogicError("internal error: witness fails a clause")
    return Model(tuple(map(value.__getitem__, order[1:])))


def _index(theory: GroundClauseSet) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """The solver index of a clause set with every variable unassigned: a
    mutable copy of each clause, whose positions 0 and 1 are its watches;
    for each literal, the clauses watching it (a negative literal indexes
    the upper half of the list); and the single-literal clauses, which are
    not watched."""
    watched = [list(cl) for cl in theory.clauses]
    watches: list[list[int]] = [[] for _ in range(2 * theory.num_vars + 1)]
    units = []
    for ci, cl in enumerate(theory.clauses):
        if len(cl) == 1:
            units.append(ci)
        else:
            watches[cl[0]].append(ci)
            watches[cl[1]].append(ci)
    return watched, watches, units


def solve(cs: GroundClauseSet | TheoryQuery, budget: int = DEFAULT_BUDGET) -> SatResult:
    """Decide a clause set, returning a verified witness or a conflict subset.

    Deterministic: branches on the lowest unassigned variable, true first,
    and backtracks chronologically. Raises BudgetExhausted once more than
    `budget` decisions (including flips) have been made; it never returns a
    wrong answer. The result counts the decisions made, which is the least
    budget that reaches it, and the variables set by unit propagation.

    A `TheoryQuery` is solved over its clauses as stored, in its theory's
    numbering, and branched on in query order: "the lowest unassigned
    variable" is the stored variable `cs.order[q]` of the lowest query
    variable q that is unassigned. Renaming variables changes no step of
    the search, so the decisions, the conflict clause indices and the
    witness are those of solving `cs.clause_set`. The witness is checked
    against every stored clause in `value`, the search's table of literal
    values, and returned in query numbering. A `GroundClauseSet` is solved
    as a theory with no plan clauses: it is in query numbering already, and
    its order is the identity.

    Unit propagation uses two watched literals per clause but visits clauses
    in the order of a sweep: passes over the clauses in index order, each
    evaluating a clause under the assignment made so far, until a pass
    changes nothing. A clause counts each occurrence of a literal, so
    `x or x` with `x` unassigned is not unit. The first conflict clause, the
    antecedent of every propagated variable and therefore the conflict
    explanation are those of that sweep.

    The watch index of the theory's clauses is built by the first solve
    against the theory and kept in `theory.solver_indexes`; each later
    solve borrows it. It adds the plan clauses and the plan's variables to
    the index, and when the search ends, with an answer or with
    BudgetExhausted, it removes them and gives the index back. The theory
    clauses keep the watches the search left them: watches need no repair
    on backtracking, so with every variable unassigned again any two
    positions of a clause are valid watches. Which positions are watched
    changes no step of the sweep, since a clause is queued exactly when it
    has no true literal and at most one literal that is not false, so a
    borrowed index gives the result a fresh one gives. A solve that finds
    no index to borrow, as one running beside another on the same theory
    does, builds its own and leaves it for later solves.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if isinstance(cs, TheoryQuery):
        theory, plan, order = cs.theory, cs.plan_clauses, cs.order
    else:
        theory, plan, order = cs, (), [*range(cs.num_vars + 1)]
    n, nt = cs.num_vars, theory.num_vars
    clauses = cs.clauses  # the plan clauses, then the theory's
    mt, k = len(theory.clauses), len(plan)
    m = mt + k

    # value[lit] is the truth value of literal lit (None when unassigned);
    # a negative literal indexes the upper half of the list.
    value: list[bool | None] = [None] * (2 * n + 1)
    trail: list[int] = []  # literals made true, in assignment order
    reasons: list[int | None] = []  # clause that propagated each, None for decisions
    # For each decision on the trail, in order: the query variable it
    # branched on, and whether it is the flip of an earlier decision there.
    branched: list[tuple[int, bool]] = []
    used: set[int] = set()
    decisions = propagations = 0
    lowest_free = 1  # every query variable below it is assigned

    # Positions 0 and 1 of watched[ci] are the clause's watches, and
    # watches[lit] lists each clause once per watch on lit. While a clause
    # is neither satisfied nor pending, both its watches are unassigned, so
    # it can only become unit or false when one of them becomes false.
    # Single-literal clauses are not watched: they are pending from the
    # start, so the first propagation sets them before any decision, and
    # backtracking never unsets them. The index names clauses by id:
    # theory clause j is j and plan clause i is mt + i, so the theory's
    # ids are the same in every query. Clause id ci is clause (ci + k) % m
    # of the query. The plan's variables nt + 1..n get their watch lists in
    # the middle of `watches`, where their literals index.
    pool = theory.solver_indexes
    index = pool.pop() if pool else _index(theory)
    watched, watches, units = index
    watches[nt + 1:nt + 1] = [[] for _ in range(2 * (n - nt))]
    # Clauses that may be unit or false, as a heap of keys pass * m + index:
    # the position at which the sweep reaches the clause next.
    pending: list[int] = []
    for i, cl in enumerate(plan):
        watched.append(list(cl))
        if len(cl) == 1:
            pending.append(i)
        else:
            watches[cl[0]].append(mt + i)
            watches[cl[1]].append(mt + i)
    pending += [k + ci for ci in units]  # ascending keys already form a heap
    base = 0  # key of index 0 in the current pass
    pos = -1  # index of the clause being evaluated; -1 before a pass

    def assign(lit: int, reason: int | None) -> None:
        value[lit] = True
        value[-lit] = False
        trail.append(lit)
        reasons.append(reason)
        false_lit = -lit
        kept = []
        for ci in watches[false_lit]:
            lits = watched[ci]
            if lits[0] == false_lit:
                lits[0] = lits[1]
                lits[1] = false_lit
            if value[lits[0]] is True:
                kept.append(ci)
                continue
            for j in range(2, len(lits)):
                other = lits[j]
                if value[other] is not False:
                    lits[1] = other
                    lits[j] = false_lit
                    watches[other].append(ci)
                    break
            else:
                kept.append(ci)
                # A clause behind the sweep position waits for the next pass.
                at = (ci + k) % m
                heappush(pending, base + at if at > pos else base + m + at)
        watches[false_lit] = kept

    def unassign() -> tuple[int, bool]:
        # Returns the literal and whether it was a decision not yet flipped.
        # A decision was made on the lowest unassigned query variable, and
        # every variable assigned after it is unassigned before it, so
        # undoing it makes its query variable the lowest unassigned again.
        nonlocal lowest_free
        lit = trail.pop()
        value[lit] = value[-lit] = None
        if reasons.pop() is not None:
            return lit, False
        lowest_free, was_flip = branched.pop()
        return lit, not was_flip

    def propagate() -> int | None:
        # Evaluates each pending clause as the sweep would, in sweep order.
        nonlocal base, pos, propagations
        start = len(trail)
        try:
            while pending:
                key = heappop(pending)
                pos = key % m
                base = key - pos
                unassigned = 0
                count = 0
                for lit in clauses[pos]:
                    v = value[lit]
                    if v is True:
                        break
                    if v is None:
                        unassigned = lit
                        count += 1
                else:
                    if count == 0:
                        return pos
                    if count == 1:
                        assign(unassigned, pos)
            return None
        finally:
            pending.clear()
            base, pos = 0, -1
            propagations += len(trail) - start

    def record_refutation_path(conflict_ci: int) -> None:
        # Resolve the conflict clause backwards through propagation
        # antecedents until only decision variables remain; every clause
        # used in that walk supports the refutation of this branch.
        used.add(conflict_ci)
        open_vars = {abs(lit) for lit in clauses[conflict_ci]}
        for at in range(len(trail) - 1, -1, -1):
            var = abs(trail[at])
            reason = reasons[at]
            if var in open_vars and reason is not None:
                used.add(reason)
                open_vars.discard(var)
                open_vars |= {abs(lit) for lit in clauses[reason] if abs(lit) != var}

    intact = True
    try:
        while True:
            conflict = propagate() if pending else None
            if conflict is not None:
                record_refutation_path(conflict)
                retry = 0
                while trail:
                    lit, can_flip = unassign()
                    if can_flip:
                        retry = -lit
                        break
                if not retry:
                    return SatResult(
                        satisfiable=False,
                        conflict=ConflictExplanation(tuple(sorted(used))),
                        decisions=decisions,
                        propagations=propagations,
                    )
                decisions += 1
                if decisions > budget:
                    raise BudgetExhausted(decisions)
                branched.append((lowest_free, True))
                assign(retry, None)
                continue

            while lowest_free <= n and value[order[lowest_free]] is not None:
                lowest_free += 1
            if lowest_free > n:
                return SatResult(satisfiable=True, model=_witness(value, clauses, order),
                                 decisions=decisions, propagations=propagations)
            decisions += 1
            if decisions > budget:
                raise BudgetExhausted(decisions)
            branched.append((lowest_free, False))
            assign(order[lowest_free], None)
    except BudgetExhausted:
        raise
    except BaseException:
        # An interruption inside `assign` can leave a watch list half
        # rewritten, so the index is dropped, not given back.
        intact = False
        raise
    finally:
        if intact:
            for ci in range(mt, m):
                lits = watched[ci]
                if len(lits) > 1:
                    watches[lits[0]].remove(ci)
                    watches[lits[1]].remove(ci)
            del watched[mt:]
            del watches[nt + 1:2 * n - nt + 1]
            pool.append(index)
