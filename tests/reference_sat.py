"""Two oracles for `deon.sat.solve`, kept in the tests.

`solve` is the depth-first solver with rescanning unit propagation:
`deon.sat.solve` must return exactly what it returns, the same verdict,
witness model and conflict clause indices, and the same decision count
when the budget runs out. The body is the solver's original
implementation, unchanged; it rescans every clause after each assignment.

`brute_force` is the exhaustive oracle: it enumerates every assignment of
a universe of up to `ENUMERATION_LIMIT` variables, so its verdict does
not depend on any search order. `subset` turns a conflict explanation into
the clause set it names, for `brute_force` to refute.
"""

from __future__ import annotations

from deon.logic import GroundClauseSet, LogicError
from deon.sat import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    ConflictExplanation,
    Model,
    SatResult,
)

#: Largest variable universe the exhaustive oracle will enumerate.
ENUMERATION_LIMIT = 24


def _verified(model: Model, cs: GroundClauseSet) -> Model:
    if not model.satisfies(cs):
        raise LogicError("internal error: witness fails a clause")
    return model


def solve(cs: GroundClauseSet, budget: int = DEFAULT_BUDGET) -> SatResult:
    """Decide a clause set, returning a verified witness or a conflict subset.

    Deterministic: branches on the lowest unassigned variable, true first.
    Raises BudgetExhausted once more than `budget` decisions (including
    flips) have been made; it never returns a wrong answer.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    n = cs.num_vars
    clauses = cs.clauses

    assign: list[bool | None] = [None] * n
    antecedent: list[int | None] = [None] * n  # clause that propagated the var
    trail: list[int] = []  # var indices in assignment order
    is_decision: list[bool] = []
    flipped: list[bool] = []
    used: set[int] = set()
    decisions = 0

    def lit_value(lit: int) -> bool | None:
        v = assign[abs(lit) - 1]
        if v is None:
            return None
        return v if lit > 0 else not v

    def push(var: int, value: bool, ante: int | None, decision: bool, was_flip: bool) -> None:
        assign[var] = value
        antecedent[var] = ante
        trail.append(var)
        is_decision.append(decision)
        flipped.append(was_flip)

    def pop() -> tuple[int, bool, bool]:
        var = trail.pop()
        dec = is_decision.pop()
        flip = flipped.pop()
        value = assign[var]
        assign[var] = None
        antecedent[var] = None
        return var, bool(value), dec and not flip

    def propagate() -> int | None:
        changed = True
        while changed:
            changed = False
            for ci, cl in enumerate(clauses):
                unassigned = None
                count = 0
                satisfied = False
                for lit in cl:
                    v = lit_value(lit)
                    if v is True:
                        satisfied = True
                        break
                    if v is None:
                        unassigned = lit
                        count += 1
                if satisfied:
                    continue
                if count == 0:
                    return ci
                if count == 1:
                    assert unassigned is not None
                    push(abs(unassigned) - 1, unassigned > 0, ci, False, False)
                    changed = True
        return None

    def record_refutation_path(conflict_ci: int) -> None:
        # Resolve the conflict clause backwards through propagation
        # antecedents until only decision variables remain; every clause
        # used in that walk supports the refutation of this branch.
        used.add(conflict_ci)
        pending = {abs(lit) - 1 for lit in clauses[conflict_ci]}
        for pos in range(len(trail) - 1, -1, -1):
            var = trail[pos]
            ante = antecedent[var]
            if var in pending and ante is not None:
                used.add(ante)
                pending.discard(var)
                pending |= {abs(lit) - 1 for lit in clauses[ante] if abs(lit) - 1 != var}

    while True:
        conflict = propagate()
        if conflict is not None:
            record_refutation_path(conflict)
            retry_var = None
            retry_value = None
            while trail:
                var, value, can_flip = pop()
                if can_flip:
                    retry_var, retry_value = var, value
                    break
            if retry_var is None:
                return SatResult(
                    satisfiable=False,
                    conflict=ConflictExplanation(tuple(sorted(used))),
                )
            decisions += 1
            if decisions > budget:
                raise BudgetExhausted(decisions)
            push(retry_var, not retry_value, None, True, True)
            continue

        free = next((i for i in range(n) if assign[i] is None), None)
        if free is None:
            model = Model(tuple(bool(v) for v in assign))
            return SatResult(satisfiable=True, model=_verified(model, cs))
        decisions += 1
        if decisions > budget:
            raise BudgetExhausted(decisions)
        push(free, True, None, True, False)


def brute_force(cs: GroundClauseSet) -> SatResult:
    """Exhaustive oracle: first satisfying assignment in counting order.

    Assignments are enumerated with the last variable as the fastest-moving
    bit, all-false first. Implemented over bitmasks of the whole assignment
    space, which preserves the enumeration order exactly.
    """
    n = cs.num_vars
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"universe of {n} atoms exceeds enumeration bound {ENUMERATION_LIMIT}")
    if n == 0:
        if cs.clauses:  # nonempty clauses over zero vars cannot exist
            raise LogicError("clauses over an empty universe")
        return SatResult(satisfiable=True, model=Model(()))

    space = 1 << n
    all_assignments = (1 << space) - 1
    masks = _true_masks(n)

    surviving = all_assignments
    for cl in cs.clauses:
        clause_mask = 0
        for lit in cl:
            var = abs(lit) - 1
            clause_mask |= masks[var] if lit > 0 else (all_assignments & ~masks[var])
        surviving &= clause_mask
        if not surviving:
            return SatResult(
                satisfiable=False,
                conflict=ConflictExplanation(tuple(range(len(cs.clauses)))),
            )

    first = (surviving & -surviving).bit_length() - 1
    values = tuple(bool((first >> (n - 1 - j)) & 1) for j in range(n))
    return SatResult(satisfiable=True, model=_verified(Model(values), cs))


def subset(conflict: ConflictExplanation, cs: GroundClauseSet) -> GroundClauseSet:
    """`conflict`'s clauses of `cs` as a clause set over the same variable universe."""
    return GroundClauseSet(
        cs.atoms,
        cs.aux_count,
        tuple(cs.clauses[i] for i in conflict.clause_indices),
        tuple(cs.label_of(i) for i in conflict.clause_indices) if cs.labels else (),
    )


_MASK_CACHE: dict[int, list[int]] = {}


def _true_masks(n: int) -> list[int]:
    """masks[j] has bit i set iff variable j is true in assignment number i."""
    if n in _MASK_CACHE:
        return _MASK_CACHE[n]
    space = 1 << n
    masks = []
    for j in range(n):
        p = n - 1 - j  # bit position of var j within the assignment index
        block = ((1 << (1 << p)) - 1) << (1 << p)
        period = 1 << (p + 1)
        m = block
        width = period
        while width < space:
            m |= m << width
            width *= 2
        masks.append(m & ((1 << space) - 1))
    _MASK_CACHE[n] = masks
    return masks
