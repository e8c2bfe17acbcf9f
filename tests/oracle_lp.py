"""Reference exact LP: the dense two-phase tableau simplex over Fraction with
Bland's rule, for LPs in general form. `regma.optimize.lp_max` solves only
the max-min LP, from the basis that phase 1 here reaches on it in one
pivot, and then makes the same pivots: on that LP both give equal weights,
value and row duals. This one pays a gcd on every entry and recomputes
every reduced cost at every step, so it is slow but plainly the textbook
method."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from regma.errors import PreconditionError
from regma.exact import Rat

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LPSolution:
    """status is 'optimal', 'infeasible', or 'unbounded'; at optimal the
    primal/dual objective values agree exactly (strong duality)."""

    status: str
    primal: tuple[Rat, ...] = ()
    dual_eq: tuple[Rat, ...] = ()
    dual_ub: tuple[Rat, ...] = ()
    value: Rat = ZERO


def lp_max(objective: Sequence[Rat],
           eq: Sequence[tuple[Sequence[Rat], Rat]] = (),
           ub: Sequence[tuple[Sequence[Rat], Rat]] = ()) -> LPSolution:
    """Maximize objective·x subject to eq rows (a·x = b), ub rows (a·x <= b),
    and x >= 0, by two-phase simplex with Bland's anti-cycling rule."""
    n = len(objective)
    c = [Fraction(x) for x in objective]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    kinds: list[str] = []
    for a, b in eq:
        if len(a) != n:
            raise PreconditionError("equality row length mismatch")
        rows.append([Fraction(x) for x in a])
        rhs.append(Fraction(b))
        kinds.append("eq")
    for a, b in ub:
        if len(a) != n:
            raise PreconditionError("inequality row length mismatch")
        rows.append([Fraction(x) for x in a])
        rhs.append(Fraction(b))
        kinds.append("ub")
    m = len(rows)

    # Columns: n structural, one slack per ub row, then one artificial per
    # row that needs one (eq rows, and ub rows whose rhs was negated; a
    # nonnegative ub row starts with its slack basic). The identity column
    # of each row (slack or artificial) also yields its dual value.
    nslack = sum(1 for k in kinds if k == "ub")
    art_rows = [i for i in range(m)
                if kinds[i] == "eq" or rhs[i] < 0]
    art0 = n + nslack
    width = art0 + len(art_rows)
    tab = [[ZERO] * (width + 1) for _ in range(m)]
    basis = [-1] * m
    identity_col = [-1] * m
    si = 0
    ai = 0
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1
        for j in range(n):
            tab[i][j] = sign * rows[i][j]
        if kinds[i] == "ub":
            tab[i][n + si] = Fraction(sign)
            if sign > 0:
                basis[i] = n + si
                identity_col[i] = n + si
            si += 1
        if i in art_rows:
            col = art0 + ai
            tab[i][col] = ONE
            basis[i] = col
            identity_col[i] = col
            ai += 1
        tab[i][width] = sign * rhs[i]
    in_basis = set(basis)

    def pivot(row: int, col: int) -> None:
        pr = tab[row]
        inv = ONE / pr[col]
        for j in range(width + 1):
            if pr[j]:
                pr[j] *= inv
        for i in range(m):
            if i != row and tab[i][col]:
                f = tab[i][col]
                ri = tab[i]
                for j in range(width + 1):
                    if pr[j]:
                        ri[j] -= f * pr[j]
        in_basis.discard(basis[row])
        basis[row] = col
        in_basis.add(col)

    class _Unbounded(Exception):
        pass

    def reduced_cost(costs: list[Fraction], j: int) -> Fraction:
        z = ZERO
        for i in range(m):
            tij = tab[i][j]
            if tij:
                cb = costs[basis[i]]
                if cb:
                    z += cb * tij
        return costs[j] - z

    def run_phase(costs: list[Fraction], limit: int) -> None:
        while True:
            # Bland's rule: first improving column, smallest-index leaving
            # basis variable on ratio ties.
            enter = None
            for j in range(limit):
                if j in in_basis:
                    continue
                if reduced_cost(costs, j) > 0:
                    enter = j
                    break
            if enter is None:
                return
            leave = None
            best: Fraction | None = None
            for i in range(m):
                if tab[i][enter] > 0:
                    ratio = tab[i][width] / tab[i][enter]
                    if best is None or ratio < best or (
                            ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                raise _Unbounded()
            pivot(leave, enter)

    if art_rows:
        phase1 = [ZERO] * width
        for j in range(art0, width):
            phase1[j] = Fraction(-1)
        run_phase(phase1, art0)
        if any(tab[i][width] != 0 and basis[i] >= art0 for i in range(m)):
            return LPSolution("infeasible")
        for i in range(m):
            if basis[i] >= art0:
                col = next((j for j in range(art0) if tab[i][j] != 0), None)
                if col is not None:
                    pivot(i, col)

    costs2 = [ZERO] * width
    for j in range(n):
        costs2[j] = c[j]
    try:
        run_phase(costs2, art0)
    except _Unbounded:
        return LPSolution("unbounded")

    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][width]
    value = sum((c[j] * x[j] for j in range(n)), ZERO)
    # Duals: z-value over each row's original identity column, corrected for
    # the sign flip applied at setup (for slack columns z = -reduced cost).
    duals = [ZERO] * m
    for r in range(m):
        col = identity_col[r]
        z = ZERO
        for i in range(m):
            tic = tab[i][col]
            if tic:
                cb = costs2[basis[i]]
                if cb:
                    z += cb * tic
        sign = -1 if rhs[r] < 0 else 1
        duals[r] = sign * z
    dual_eq = tuple(duals[i] for i in range(m) if kinds[i] == "eq")
    dual_ub = tuple(duals[i] for i in range(m) if kinds[i] == "ub")
    return LPSolution("optimal", tuple(x), dual_eq, dual_ub, value)
