"""Reference odd-determinant scan: the F2-echelon `odd_determinant_check`
that `regma.exact.odd_determinant_check` must agree with verdict for
verdict. It visits every maximal column subset, certifies an odd
determinant by full F2 rank, and computes the exact determinant of every
F2-singular subset, so it needs no argument that a Q-dependent prefix has
only zero determinants below it."""

from __future__ import annotations

from regma.errors import RankDeficientError
from regma.exact import IntMatrix, OddDetVerdict, det, rank_q


def odd_determinant_check(h: IntMatrix) -> OddDetVerdict:
    """Check that every d x d column submatrix of the d x n matrix h has
    determinant in {0} or odd. The first offending column subset in
    lexicographic order is reported.

    The scan keeps an incremental F2 echelon of the chosen columns: a full
    F2 rank certifies an odd determinant for free, and the exact Bareiss
    determinant is only computed for subsets that are F2-singular (those are
    the only ones that can be even and nonzero).
    """
    d, n = h.rows, h.cols
    if rank_q(h) != d:
        raise RankDeficientError(f"matrix has rank < {d}; columns do not span")
    if d == 0:
        return OddDetVerdict(True)
    cols2 = h.mod2().col_masks()

    chosen: list[int] = []

    def scan(start: int, basis: tuple[int, ...]) -> OddDetVerdict | None:
        depth = len(chosen)
        if depth == d:
            if len(basis) == d:
                return None  # F2-nonsingular: determinant is odd
            dd = det(h.select_cols(chosen))
            if dd != 0:
                return OddDetVerdict(False, tuple(chosen), dd)
            return None
        # Upper range bound keeps enough columns to finish the subset.
        for j in range(start, n - (d - depth) + 1):
            w = cols2[j]
            for b in basis:
                w = min(w, w ^ b)
            nb = basis
            if w:
                nb = tuple(sorted(basis + (w,), reverse=True))
            chosen.append(j)
            bad = scan(j + 1, nb)
            chosen.pop()
            if bad is not None:
                return bad
        return None

    bad = scan(0, ())
    return bad if bad is not None else OddDetVerdict(True)
