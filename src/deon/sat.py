"""Satisfiability of ground clause sets with witnesses and conflict subsets.

The solver is depth-first search with chronological backtracking and a fixed
branching order (lowest unassigned variable, true first); the decision
budget counts decisions and flips. Unit propagation uses two watched
literals per clause, as in Chaff and MiniSat, but it evaluates clauses in
the order of a Gauss-Seidel sweep over the clause list. That order decides
which clause propagates each variable and which conflict is found first, so
conflict explanations do not depend on how propagation is implemented.
Solver runs are independent; inputs and outputs are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .logic import Atom, GroundClauseSet, LogicError

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

    def satisfies(self, cs: GroundClauseSet) -> bool:
        # truth[lit] is the value of literal lit; a negative literal indexes
        # the mirrored upper half, which holds the negated values.
        if len(self.values) < cs.num_vars:
            raise LogicError("model does not cover the clause set's variables")
        truth = [False, *self.values, *[not v for v in reversed(self.values)]]
        get = truth.__getitem__
        return all(any(map(get, cl)) for cl in cs.clauses)

    def atom_values(self, cs: GroundClauseSet) -> dict[Atom, bool]:
        """The assignment restricted to real atoms (definitional vars dropped)."""
        return {atom: self.values[i] for i, atom in enumerate(cs.atoms)}


@dataclass(frozen=True)
class ConflictExplanation:
    """Clauses touched on the refutation path; jointly unsatisfiable, not minimal."""

    clause_indices: tuple[int, ...]

    def render(self, cs: GroundClauseSet) -> list[str]:
        lines = []
        for i in self.clause_indices:
            label = cs.label_of(i)
            text = cs.clause_str(i)
            lines.append(f"{label}: {text}" if label else text)
        return lines


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    model: Model | None = None
    conflict: ConflictExplanation | None = None

    def __post_init__(self) -> None:
        if self.satisfiable and self.model is None:
            raise LogicError("satisfiable result requires a witness model")
        if not self.satisfiable and self.conflict is None:
            raise LogicError("unsatisfiable result requires a conflict explanation")


def _verified(model: Model, cs: GroundClauseSet) -> Model:
    if not model.satisfies(cs):
        raise LogicError("internal error: witness fails a clause")
    return model


def solve(cs: GroundClauseSet, budget: int = DEFAULT_BUDGET) -> SatResult:
    """Decide a clause set, returning a verified witness or a conflict subset.

    Deterministic: branches on the lowest unassigned variable, true first,
    and backtracks chronologically. Raises BudgetExhausted once more than
    `budget` decisions (including flips) have been made; it never returns a
    wrong answer.

    Unit propagation uses two watched literals per clause but visits clauses
    in the order of a sweep: passes over the clauses in index order, each
    evaluating a clause under the assignment made so far, until a pass
    changes nothing. A clause counts each occurrence of a literal, so
    `x or x` with `x` unassigned is not unit. The first conflict clause, the
    antecedent of every propagated variable and therefore the conflict
    explanation are those of that sweep.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    n = cs.num_vars
    clauses = cs.clauses
    m = len(clauses)

    # value[lit] is the truth value of literal lit (None when unassigned);
    # a negative literal indexes the upper half of the list.
    value: list[bool | None] = [None] * (2 * n + 1)
    trail: list[int] = []  # literals made true, in assignment order
    reasons: list[int | None] = []  # clause that propagated each, None for decisions
    flipped: list[bool] = []
    used: set[int] = set()
    decisions = 0
    lowest_free = 1  # every variable below it is assigned

    # Positions 0 and 1 of watched[ci] are the clause's watches, and
    # watches[lit] lists each clause once per watch on lit. While a clause
    # is neither satisfied nor pending, both its watches are unassigned, so
    # it can only become unit or false when one of them becomes false.
    # Single-literal clauses are not watched: they are pending from the
    # start, so the first propagation sets them before any decision, and
    # backtracking never unsets them.
    watched = [list(cl) for cl in clauses]
    watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
    # Clauses that may be unit or false, as a heap of keys pass * m + index:
    # the position at which the sweep reaches the clause next.
    pending: list[int] = []
    for ci, cl in enumerate(clauses):
        if len(cl) == 1:
            pending.append(ci)  # ascending keys already form a heap
        else:
            watches[cl[0]].append(ci)
            watches[cl[1]].append(ci)
    base = 0  # key of index 0 in the current pass
    pos = -1  # index of the clause being evaluated; -1 before a pass

    def assign(lit: int, reason: int | None, was_flip: bool) -> None:
        value[lit] = True
        value[-lit] = False
        trail.append(lit)
        reasons.append(reason)
        flipped.append(was_flip)
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
            for k in range(2, len(lits)):
                other = lits[k]
                if value[other] is not False:
                    lits[1] = other
                    lits[k] = false_lit
                    watches[other].append(ci)
                    break
            else:
                kept.append(ci)
                # A clause behind the sweep position waits for the next pass.
                heappush(pending, base + ci if ci > pos else base + m + ci)
        watches[false_lit] = kept

    def unassign() -> tuple[int, bool]:
        nonlocal lowest_free
        lit = trail.pop()
        decision = reasons.pop() is None
        flip = flipped.pop()
        value[lit] = value[-lit] = None
        lowest_free = min(lowest_free, abs(lit))
        return lit, decision and not flip

    def propagate() -> int | None:
        # Evaluates each pending clause as the sweep would, in sweep order.
        nonlocal base, pos
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
                        assign(unassigned, pos, False)
            return None
        finally:
            pending.clear()
            base, pos = 0, -1

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

    while True:
        conflict = propagate()
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
                )
            decisions += 1
            if decisions > budget:
                raise BudgetExhausted(decisions)
            assign(retry, None, True)
            continue

        while lowest_free <= n and value[lowest_free] is not None:
            lowest_free += 1
        if lowest_free > n:
            model = Model(tuple(bool(value[v]) for v in range(1, n + 1)))
            return SatResult(satisfiable=True, model=_verified(model, cs))
        decisions += 1
        if decisions > budget:
            raise BudgetExhausted(decisions)
        assign(lowest_free, None, False)
