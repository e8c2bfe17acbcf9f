"""Exact arithmetic kernel: arbitrary-precision integer and rational linear
algebra, F2 linear algebra on packed bitmasks, the Hermite normal form and
integer kernel lattices, and the odd-determinant regularity test: a
depth-first walk over the Q-independent column prefixes that carries each
candidate column's reduction down the walk, with one exact determinant per
basis, built from its columns.

Rationals are fractions.Fraction values (always stored reduced with a
positive denominator, so equality is bit-exact). Integer matrices are
immutable row-major tuples. F2 matrices pack one Python int per row,
bit j = column j.

Each job is done once, here. `det` and `rank_q` share one fraction-free
(Bareiss) elimination, as F2 ranks, row-space equality and kernels share
one reduced echelon form, `f2_echelon`; no other module reads its pivots.
`matroid` pushes weights forward by Cramer's rule over `det` and tests
parallel columns by `rank_q`. `scale_to_ints` puts rationals over their
least common denominator, where Fraction weights meet the integer searches
and in the certificate checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionError, RankDeficientError

Rat = Fraction


def parse_rat(text: str) -> Rat:
    """Parse "p/q" or "p" into a rational."""
    return Fraction(text.strip())


def format_rat(value: Rat) -> str:
    """Serialize a rational as "p/q", omitting "/q" when q = 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"IntMatrix needs {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionError("ragged rows")
            flat.extend(int(x) for x in r)
        return IntMatrix(nrows, ncols, tuple(flat))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(e for j in range(self.cols) for e in self.col(j)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError("matrix product shape mismatch")
        ot = [other.col(j) for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            out.append([sum(a * b for a, b in zip(ri, c)) for c in ot])
        return IntMatrix.from_rows(out) if out else IntMatrix(0, other.cols, ())

    def select_cols(self, indices: Sequence[int]) -> "IntMatrix":
        c = self.cols
        if indices and not (0 <= min(indices) and max(indices) < c):
            raise DimensionError(f"column index out of range({c})")
        e = self.entries
        # with no columns there are no entries, and range() takes no step 0
        return IntMatrix(self.rows, len(indices),
                         tuple([e[i + j] for i in range(0, self.rows * c, c or 1)
                                for j in indices]))

    def mod2(self) -> "BitMatrix":
        bits = []
        for i in range(self.rows):
            word = 0
            for j, v in enumerate(self.row(i)):
                if v & 1:
                    word |= 1 << j
            bits.append(word)
        return BitMatrix(self.rows, self.cols, tuple(bits))


@dataclass(frozen=True)
class BitMatrix:
    """Matrix over F2; row i is the int self.bits[i], bit j = column j."""

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != self.rows:
            raise DimensionError("BitMatrix needs one word per row")
        mask = (1 << self.cols) - 1
        if any(b & ~mask for b in self.bits):
            raise DimensionError("row word has bits beyond the column count")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "BitMatrix":
        return IntMatrix.from_rows(rows).mod2()

    def at(self, i: int, j: int) -> int:
        return (self.bits[i] >> j) & 1

    def to_rows(self) -> list[list[int]]:
        return [[(w >> j) & 1 for j in range(self.cols)] for w in self.bits]

    def col_masks(self) -> list[int]:
        """Columns packed as ints, bit i = row i."""
        cols = [0] * self.cols
        for i, w in enumerate(self.bits):
            while w:
                j = (w & -w).bit_length() - 1
                cols[j] |= 1 << i
                w &= w - 1
        return cols

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, tuple(self.col_masks()))


def rank_f2(m: BitMatrix) -> int:
    """Rank over F2."""
    return len(f2_echelon(m.bits))


def f2_echelon(words: Iterable[int]) -> list[int]:
    """Reduced row echelon form over F2 of bitmask rows (bit j = column j),
    zero rows dropped. Each row's lowest set bit is its pivot, which no
    other row has, and the rows are in pivot order, so the result depends
    only on the row space."""
    rows: list[int] = []
    for w in words:
        for r in rows:
            if w & r & -r:
                w ^= r
        if w:
            p = w & -w  # no row's pivot, and above the pivot of each row with it
            rows = [r ^ w if r & p else r for r in rows]
            rows.append(w)
    return sorted(rows, key=lambda r: r & -r)


def f2_kernel(words: Iterable[int], cols: int) -> list[int]:
    """A basis of the x in F2^cols orthogonal to every row: for each column
    j without a pivot, in order, bit j plus the pivot of each echelon row
    that has bit j."""
    rows = f2_echelon(words)
    pivots = [r & -r for r in rows]
    taken = sum(pivots)
    return [b | sum(p for r, p in zip(rows, pivots) if r & b)
            for b in (1 << j for j in range(cols)) if not b & taken]


def _bareiss(m: IntMatrix) -> tuple[int, int]:
    """Fraction-free Gaussian elimination (Bareiss 1968): (rank over Q,
    ± the last pivot). Each update divides exactly by the previous pivot, so
    every entry stays a minor of m instead of doubling in length with each
    eliminated row. The sign follows the row swaps, so for a nonsingular
    square m the second value is det(m)."""
    rows, cols = m.rows, m.cols
    a = [list(m.row(i)) for i in range(rows)]
    rank, sign, prev = 0, 1, 1
    for col in range(cols):
        if rank == rows:
            break
        if not a[rank][col]:
            pivot = next((i for i in range(rank + 1, rows) if a[i][col]), None)
            if pivot is None:
                continue
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        pr = a[rank]
        p = pr[col]
        rest = range(col + 1, cols)
        same = p == prev  # then a row with 0 under the pivot is unchanged
        for i in range(rank + 1, rows):
            ri = a[i]
            f = ri[col]
            if f or not same:
                for j in rest:
                    ri[j] = (p * ri[j] - f * pr[j]) // prev
        prev = p
        rank += 1
    return rank, sign * prev


def det(m: IntMatrix):
    """Exact determinant by Bareiss elimination."""
    if m.rows != m.cols:
        raise DimensionError("determinant of a non-square matrix")
    rank, last = _bareiss(m)
    return last if rank == m.rows else 0


def rank_q(m: IntMatrix) -> int:
    """Rank over the rationals by Bareiss elimination."""
    return _bareiss(m)[0]


def scale_to_ints(values: Sequence[Rat | int]) -> tuple[int, list[int]]:
    """(L, L·values) for L the least common multiple of the denominators of
    the rationals (or ints) in values."""
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


@dataclass(frozen=True)
class OddDetVerdict:
    """Outcome of the odd-determinant scan over all maximal column subsets."""

    ok: bool
    violation: tuple[int, ...] | None = None
    determinant: int | None = None


def odd_determinant_check(h: IntMatrix) -> OddDetVerdict:
    """Check that every d x d column submatrix of the d x n matrix h has
    determinant in {0} or odd. The first offending column subset in
    lexicographic order is reported.

    The scan walks the column subsets depth first in lexicographic order.
    Each node carries its later candidate columns, each reduced over Q
    against the chosen prefix; choosing one takes a single fraction-free
    step of every later candidate against its reduced vector. A candidate
    that reduces to zero is dependent on the prefix, so every completion
    through it has determinant 0 and it is dropped. Every leaf reached is
    a basis, decided by one exact Bareiss `det` of the matrix whose rows
    are its columns: an even value is the violation.
    """
    d, n = h.rows, h.cols
    if rank_q(h) != d:
        raise RankDeficientError(f"matrix has rank < {d}; columns do not span")
    if d == 0:
        return OddDetVerdict(True)
    cols = [h.col(j) for j in range(n)]
    chosen: list[int] = []

    def scan(cand: list[tuple[int, list[int]]],
             rows: tuple[int, ...]) -> OddDetVerdict | None:
        last = len(chosen) == d - 1
        # Leave enough candidates after each choice to finish the subset.
        for i in range(len(cand) - (d - len(chosen)) + 1):
            j, v = cand[i]
            chosen.append(j)
            if last:  # a basis; det of the transpose is the same
                dd = det(IntMatrix(d, d, rows + cols[j]))
                bad = None if dd & 1 else OddDetVerdict(False, tuple(chosen), dd)
            else:
                p = next(r for r, x in enumerate(v) if x)
                a, child = v[p], []
                for k, w in cand[i + 1:]:
                    if b := w[p]:
                        w = [a * x - b * y for x, y in zip(w, v)]
                        if not (g := gcd(*w)):
                            continue  # Q-dependent on the prefix
                        w = [x // g for x in w]
                    child.append((k, w))
                bad = scan(child, rows + cols[j])
            chosen.pop()
            if bad is not None:
                return bad
        return None

    bad = scan([(j, list(c)) for j, c in enumerate(cols) if any(c)], ())
    return bad if bad is not None else OddDetVerdict(True)


def hermite_row_form(m: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form (zero rows dropped): row echelon over Z,
    positive pivots, entries above each pivot reduced modulo the pivot."""
    cols = m.cols
    remaining = [list(m.row(i)) for i in range(m.rows) if any(m.row(i))]
    out: list[list[int]] = []
    for col in range(cols):
        live = [r for r in remaining if r[col] != 0]
        rest = [r for r in remaining if r[col] == 0]
        if not live:
            remaining = rest
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv, others = live[0], live[1:]
            live = [piv]
            for r in others:
                q = r[col] // piv[col]
                r2 = [x - q * y for x, y in zip(r, piv)]
                if r2[col] != 0:
                    live.append(r2)
                elif any(r2):
                    rest.append(r2)
        piv = live[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        out.append(piv)
        remaining = rest
    pivcols = [next(j for j, x in enumerate(r) if x) for r in out]
    for i in range(len(out)):
        for k in range(i + 1, len(out)):
            pc = pivcols[k]
            q = out[i][pc] // out[k][pc]
            if q:
                out[i] = [x - q * y for x, y in zip(out[i], out[k])]
    return IntMatrix.from_rows(out) if out else IntMatrix(0, cols, ())


def kernel_lattice_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a lattice basis of {x in Z^cols : m·x = 0}, in Hermite
    normal form. Row-reducing [mᵀ | I] over Z is a unimodular change of
    rows; those whose mᵀ part vanishes carry in their I part a basis of that
    lattice. They are the last rows of the Hermite form, reduced against one
    another, so that part already is the lattice's (unique) Hermite basis."""
    r, n = m.rows, m.cols
    aug = IntMatrix.from_rows([[*m.col(j), *(int(i == j) for i in range(n))]
                               for j in range(n)])
    kernel = [row[r:] for row in hermite_row_form(aug).to_rows() if not any(row[:r])]
    if not kernel:
        return IntMatrix(n, 0, ())
    return IntMatrix.from_rows(kernel).transpose()
