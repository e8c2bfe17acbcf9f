"""Binary-represented matroids with optional integer lifts: graphic,
cographic, and R10 constructions, duality, 1-/2-/3-sums over F2 and over
integer weight lattices, odd transforms, and simplification.

A BinaryMatroid stores its F2 representation as constructed; when an
integer lift is present it reduces to the same row space mod 2, so
independence can be read off either side. Construction provenance is carried
along so downstream consumers can use the structured builds.

Every k-sum, of matroids or of weighted representations, is one gluing: the
kept columns of both sides, block-diagonal, restricted to the integer
lattice on which the glue rows vanish (_glue_lift), or, when a side has no
lift or a 3-sum triple no signed zero sum, taken modulo the span of the
glued vectors over F2 (_glue_f2). A 1-sum is the gluing without glue rows.

The exact algebra is `exact`'s alone: F2 ranks, the lift's row-space test
and the F2 kernels behind `dual` and _glue_f2 come from `exact.f2_echelon`
and `exact.f2_kernel`, a pushforward solves for its weights by Cramer's
rule over `exact.det`, simplify tests merged columns for parallelism by
`exact.rank_q`, and the lattices come from `exact.kernel_lattice_basis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Sequence

from .errors import DisconnectedGraphError, PreconditionError, RankDeficientError
from .exact import (BitMatrix, IntMatrix, Rat, det, f2_echelon, f2_kernel,
                    kernel_lattice_basis, odd_determinant_check, rank_f2,
                    rank_q)
from .graph import MultiGraph, fundamental_cycles

ODD_CHECK_BUDGET = 300_000  # subsets; above this WeightedRep skips the odd-determinant check


@dataclass(frozen=True)
class BinaryMatroid:
    """F2-represented matroid with ground-set labels and an optional integer
    lift whose mod-2 reduction spans the same row space as rep."""

    labels: tuple[str, ...]
    rep: BitMatrix
    lift: IntMatrix | None = None
    provenance: tuple = ("unknown",)

    def __post_init__(self):
        d, n = self.rep.rows, self.rep.cols
        if len(self.labels) != n:
            raise PreconditionError("label count must match columns")
        if rank_f2(self.rep) != d:
            raise RankDeficientError("representation must have full row rank")
        if self.lift is not None:
            if (self.lift.rows, self.lift.cols) != (d, n):
                raise PreconditionError("lift shape mismatch")
            mod2 = self.lift.mod2()
            if mod2 != self.rep and f2_echelon(mod2.bits) != f2_echelon(self.rep.bits):
                raise PreconditionError("lift mod 2 must span the same row space")

    @property
    def rank(self) -> int:
        return self.rep.rows

    @property
    def size(self) -> int:
        return self.rep.cols

    @cached_property
    def columns(self) -> list[int]:
        """Columns as F2 bitmasks (bit i = row i)."""
        return self.rep.col_masks()

    def subset_rank(self, subset: Sequence[int]) -> int:
        cols = self.columns
        return len(f2_echelon(cols[i] for i in subset))

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise PreconditionError(f"no ground element labeled {label!r}") from None


def _edge_labels(g: MultiGraph) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(g.m))


def graphic(g: MultiGraph, root: int = 0) -> BinaryMatroid:
    """Graphic matroid with its signed-incidence lift (root row deleted);
    columns are indexed by edges, loops becoming zero columns."""
    if not g.is_connected():
        raise DisconnectedGraphError("graphic() requires a connected graph")
    if not 0 <= root < g.n:
        raise PreconditionError("root out of range")
    rows = []
    for v in range(g.n):
        if v == root:
            continue
        row = []
        for u, w in g.edges:
            if u == w:
                row.append(0)
            elif u == v:
                row.append(-1)
            elif w == v:
                row.append(1)
            else:
                row.append(0)
        rows.append(row)
    lift = IntMatrix.from_rows(rows) if rows else IntMatrix(0, g.m, ())
    return BinaryMatroid(_edge_labels(g), lift.mod2(), lift, ("graphic", g, root))


def cographic(g: MultiGraph) -> BinaryMatroid:
    """Cographic matroid: rank betti(g); column e is the class of e* in the
    first cohomology, written in the basis dual to the fundamental cycles of
    a spanning tree. Circuits are the minimal edge cuts of g. Row i is the
    i-th of `fundamental_cycles`, so the tree columns carry the opposite
    sign to the cycle oriented along its non-tree edge."""
    if not g.is_connected():
        raise DisconnectedGraphError("cographic() requires a connected graph")
    rows = []
    for cycle in fundamental_cycles(g):
        coeff = [0] * g.m
        for e, s in cycle:
            coeff[e] = s
        rows.append(coeff)
    lift = IntMatrix.from_rows(rows) if rows else IntMatrix(0, g.m, ())
    return BinaryMatroid(_edge_labels(g), lift.mod2(), lift, ("cographic", g))


R10_ROWS = (
    (1, 0, 0, 0, 0, -1, 1, 0, 0, 1),
    (0, 1, 0, 0, 0, 1, -1, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, -1, 1, 0),
    (0, 0, 0, 1, 0, 0, 0, 1, -1, 1),
    (0, 0, 0, 0, 1, 1, 0, 0, 1, -1),
)


def r10() -> BinaryMatroid:
    """The sporadic ten-element matroid, via its standard 5x10 matrix."""
    lift = IntMatrix.from_rows([list(r) for r in R10_ROWS])
    labels = tuple(f"e{i}" for i in range(1, 6)) + tuple(f"f{i}" for i in range(1, 6))
    return BinaryMatroid(labels, lift.mod2(), lift, ("r10",))


def dual(m: BinaryMatroid) -> BinaryMatroid:
    """Dual matroid: bases are complements of bases. The representation is a
    basis of the orthogonal complement; the lift is the transpose of the
    integer kernel lattice basis, which inherits the odd-determinant
    property from the primal lift."""
    if m.lift is not None:
        lift = kernel_lattice_basis(m.lift).transpose()
        return BinaryMatroid(m.labels, lift.mod2(), lift, ("dual", m.provenance))
    kernel = f2_kernel(m.rep.bits, m.size)
    return BinaryMatroid(m.labels, BitMatrix(len(kernel), m.size, tuple(kernel)), None,
                         ("dual", m.provenance))


def _glue_row(w1: Sequence[int], w2: Sequence[int]) -> list[int]:
    """The form (x, y) -> w1·x - w2·y, which vanishes where w1 and w2 agree."""
    return [*w1, *(-x for x in w2)]


def _glue_lift(h1: IntMatrix, h2: IntMatrix, drop1: Sequence[int],
               drop2: Sequence[int], glue: list[list[int]]) -> IntMatrix:
    """The columns of h1 outside drop1 stacked over zeros, then those of h2
    outside drop2 under zeros, restricted to the lattice of Z^(d1+d2) on
    which every glue row vanishes, in its Hermite basis."""
    d1, d2 = h1.rows, h2.rows
    keep1 = [j for j in range(h1.cols) if j not in drop1]
    keep2 = [j for j in range(h2.cols) if j not in drop2]
    stacked = [[h1.at(i, j) for j in keep1] + [0] * len(keep2) for i in range(d1)]
    stacked += [[0] * len(keep1) + [h2.at(i, j) for j in keep2] for i in range(d2)]
    basis = kernel_lattice_basis(IntMatrix(len(glue), d1 + d2, tuple(x for r in glue for x in r)))
    return basis.transpose().mul(
        IntMatrix(d1 + d2, len(keep1) + len(keep2), tuple(x for r in stacked for x in r)))


def _glue_f2(rep1: BitMatrix, rep2: BitMatrix, drop1: Sequence[int],
             drop2: Sequence[int], killed: list[int]) -> BitMatrix:
    """F2 counterpart of _glue_lift: the kept columns of rep1 over those of
    rep2, in coordinates of F2^(d1+d2) modulo the span of the killed vectors
    (bitmasks, bit i = coordinate i)."""
    cols = [c for j, c in enumerate(rep1.col_masks()) if j not in drop1]
    cols += [c << rep1.rows for j, c in enumerate(rep2.col_masks()) if j not in drop2]
    # Rows spanning the annihilator of span(killed): two vectors agree on
    # every row iff they differ by a killed combination.
    quotient = f2_kernel(killed, rep1.rows + rep2.rows)
    return BitMatrix(len(quotient), len(cols), tuple(
        sum(((q & c).bit_count() & 1) << j for j, c in enumerate(cols)) for q in quotient))


def _glued(m1: BinaryMatroid, m2: BinaryMatroid, drop1: Sequence[int],
           drop2: Sequence[int], glue: list[list[int]] | None, killed: list[int],
           provenance: tuple) -> BinaryMatroid:
    """The sum of m1 and m2 without the glued elements: over the integer glue
    lattice when both sides are lifted and glue rows are given, else over F2
    modulo the killed vectors."""
    if m1.lift is not None and m2.lift is not None and glue is not None:
        lift = _glue_lift(m1.lift, m2.lift, drop1, drop2, glue)
        rep = lift.mod2()
    else:
        lift, rep = None, _glue_f2(m1.rep, m2.rep, drop1, drop2, killed)
    labels = [f"a.{x}" for j, x in enumerate(m1.labels) if j not in drop1]
    labels += [f"b.{x}" for j, x in enumerate(m2.labels) if j not in drop2]
    return BinaryMatroid(tuple(labels), rep, lift, provenance)


def sum1(m1: BinaryMatroid, m2: BinaryMatroid) -> BinaryMatroid:
    """Direct sum: block-diagonal representation."""
    return _glued(m1, m2, (), (), [], [], ("sum1", m1, m2))


def sum2(m1: BinaryMatroid, e1: str, m2: BinaryMatroid, e2: str) -> BinaryMatroid:
    """2-sum at elements e1, e2: quotient of the direct sum by the span of
    v1 + v2, with both glued columns removed."""
    i1, i2 = m1.label_index(e1), m2.label_index(e2)
    if m1.size < 2 or m2.size < 2:
        raise PreconditionError("2-sum needs at least two elements per side")
    v1, v2 = m1.columns[i1], m2.columns[i2]
    if v1 == 0 or v2 == 0:
        raise PreconditionError("2-sum requires nonzero glued columns")
    if all(m.subset_rank([j for j in range(m.size) if j != i]) < m.rank
           for m, i in ((m1, i1), (m2, i2))):
        raise PreconditionError("a 2-sum cannot glue two coloops")
    glue = None
    if m1.lift is not None and m2.lift is not None:
        glue = [_glue_row(m1.lift.col(i1), m2.lift.col(i2))]
    return _glued(m1, m2, (i1,), (i2,), glue, [v1 | v2 << m1.rank],
                  ("sum2", m1, i1, m2, i2))


def _triple_indices(m: BinaryMatroid, triple: Sequence[str]) -> list[int]:
    idx = [m.label_index(t) for t in triple]
    if len(set(idx)) != 3:
        raise PreconditionError("3-sum needs three distinct elements")
    cols = [m.columns[i] for i in idx]
    if any(c == 0 for c in cols):
        raise PreconditionError("3-sum triple must be nonzero")
    if cols[0] ^ cols[1] ^ cols[2]:
        raise PreconditionError("3-sum triple must sum to zero over F2")
    if len(f2_echelon(cols)) != 2:
        raise PreconditionError("3-sum triple must span a 2-dimensional space")
    return idx


def sum3(m1: BinaryMatroid, triple1: Sequence[str],
         m2: BinaryMatroid, triple2: Sequence[str]) -> BinaryMatroid:
    """3-sum along two element triples each spanning a 2-space and summing to
    zero; the identification pairs triple1[j] with triple2[j]. All six glued
    elements are removed. The sum is lifted when both triples have signs
    making their lift columns sum to zero; the three glue rows then sum to
    zero, so the glue lattice has corank 2, as over F2."""
    if m1.size < 7 or m2.size < 7:
        raise PreconditionError("3-sum needs at least seven elements per side")
    idx1 = _triple_indices(m1, triple1)
    idx2 = _triple_indices(m2, triple2)
    glue = None
    if m1.lift is not None and m2.lift is not None:
        s1 = _signed_zero_sum([m1.lift.col(i) for i in idx1])
        s2 = _signed_zero_sum([m2.lift.col(i) for i in idx2])
        if s1 is not None and s2 is not None:
            glue = [_glue_row([s1[j] * x for x in m1.lift.col(idx1[j])],
                              [s2[j] * x for x in m2.lift.col(idx2[j])])
                    for j in range(3)]
    killed = [m1.columns[idx1[j]] | m2.columns[idx2[j]] << m1.rank for j in range(2)]
    return _glued(m1, m2, idx1, idx2, glue, killed,
                  ("sum3", m1, tuple(idx1), m2, tuple(idx2)))


def _signed_zero_sum(cols: list[tuple[int, ...]]) -> tuple[int, int, int] | None:
    """Signs (s1,s2,s3) in {+-1} with s1*c1 + s2*c2 + s3*c3 = 0, if any;
    flipping a column's sign is a legal odd rescaling."""
    for s in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)):
        if all(s[0] * a + s[1] * b + s[2] * c == 0
               for a, b, c in zip(*cols)):
            return s
    return None


@dataclass(frozen=True)
class WeightedRep:
    """Integer weight matrix with normalized rational multiplicities; the
    torus-representation surrogate."""

    h: IntMatrix
    mult: tuple[Rat, ...]

    def __post_init__(self):
        if len(self.mult) != self.h.cols:
            raise PreconditionError("one multiplicity per weight column")
        mult = tuple(Fraction(x) for x in self.mult)
        if any(x < 0 for x in mult):
            raise PreconditionError("multiplicities must be nonnegative")
        total = sum(mult, Fraction(0))
        if total == 0:
            raise PreconditionError("total multiplicity must be positive")
        object.__setattr__(self, "mult", tuple(x / total for x in mult))
        if comb(self.h.cols, self.h.rows) > ODD_CHECK_BUDGET:
            if rank_q(self.h) != self.h.rows:
                raise RankDeficientError("weight columns must span (rank d)")
            return
        verdict = odd_determinant_check(self.h)  # also the rank test
        if not verdict.ok:
            raise PreconditionError(
                f"weight matrix violates the odd-determinant condition at "
                f"{verdict.violation} (det {verdict.determinant})")

    @staticmethod
    def uniform(h: IntMatrix) -> "WeightedRep":
        return WeightedRep(h, tuple(Fraction(1, h.cols) for _ in range(h.cols)))


def ksum_rep(r1: WeightedRep, r2: WeightedRep, k: int,
             selections: tuple = (), keep_glued: bool = False) -> WeightedRep:
    """k-sum of weighted representations over the integer lattice
    Gamma = intersection of ker(w_1j - w_2j); surviving weights restrict to a
    Hermite-canonical basis of Gamma (the same _glue_lift as sum1/2/3).

    selections: () for k=1; (i1, i2) column indices for k=2; two index
    triples ((a,b,c),(a',b',c')) for k=3, paired in order, each triple
    summing to zero. keep_glued retains the glued weights, appended in pair
    order with summed multiplicities, instead of removing them; restricted
    to Gamma each pair is one weight, so the copy kept is r2's.
    """
    if k == 1:
        drop1: Sequence[int] = ()
        drop2: Sequence[int] = ()
    elif k == 2:
        i1, i2 = selections
        drop1, drop2 = (i1,), (i2,)
        if not any(r1.h.col(i1)) or not any(r2.h.col(i2)):
            raise PreconditionError("2-sum weights must be nonzero")
    elif k == 3:
        drop1, drop2 = selections
        for rep, tri in ((r1, drop1), (r2, drop2)):
            cols = [rep.h.col(i) for i in tri]
            if not all(any(c) for c in cols):
                raise PreconditionError("3-sum weights must be nonzero")
            if any(sum(v) != 0 for v in zip(*cols)):
                raise PreconditionError("3-sum triples must sum to zero")
    else:
        raise PreconditionError("k must be 1, 2, or 3")
    glue = [_glue_row(r1.h.col(j1), r2.h.col(j2)) for j1, j2 in zip(drop1, drop2)]
    mults = [x for j, x in enumerate(r1.mult) if j not in drop1]
    mults += [x for j, x in enumerate(r2.mult) if j not in drop2]
    h2 = r2.h
    if keep_glued and k > 1:
        h2 = IntMatrix.from_rows([[*row, *(row[j] for j in drop2)] for row in r2.h.to_rows()])
        mults += [r1.mult[j1] + r2.mult[j2] for j1, j2 in zip(drop1, drop2)]
    return WeightedRep(_glue_lift(r1.h, h2, drop1, drop2, glue), tuple(mults))


@dataclass(frozen=True)
class Pullback:
    a: IntMatrix


@dataclass(frozen=True)
class Scale:
    factors: tuple[int, ...]


@dataclass(frozen=True)
class Pushforward:
    a: IntMatrix


@dataclass(frozen=True)
class Divide:
    divisors: tuple[int, ...]


def odd_transform(r: WeightedRep, step) -> WeightedRep:
    """Apply one step of the odd-equivalence moves: pull weights back along
    an odd-determinant lattice map, rescale columns by odd integers, push
    forward along an odd-determinant map (must stay integral), or divide
    columns by odd integers exactly.

    A pushforward along a solves aᵀx = h by Cramer's rule: entry (i, j) is
    det(a with row i replaced by column j of h) / det(a), exactly."""
    h = r.h
    if isinstance(step, Pullback):
        _odd_map(step.a, h, "pullback")
        new = step.a.transpose().mul(h)
    elif isinstance(step, Scale):
        f = _odd_factors(step.factors, h, "scale factors")
        new = IntMatrix(h.rows, h.cols,
                        tuple(x * f[k % h.cols] for k, x in enumerate(h.entries)))
    elif isinstance(step, Pushforward):
        dta = _odd_map(step.a, h, "pushforward")
        rows, cols = step.a.to_rows(), h.transpose().to_rows()
        entries = []
        for i in range(h.rows):
            for c in cols:
                x, rest = divmod(det(IntMatrix.from_rows(rows[:i] + [c] + rows[i + 1:])), dta)
                if rest:
                    raise PreconditionError("pushforward does not preserve integrality")
                entries.append(x)
        new = IntMatrix(h.rows, h.cols, tuple(entries))
    elif isinstance(step, Divide):
        f = _odd_factors(step.divisors, h, "divisors")
        if any(x % f[k % h.cols] for k, x in enumerate(h.entries)):
            raise PreconditionError("inexact division of a weight column")
        new = IntMatrix(h.rows, h.cols,
                        tuple(x // f[k % h.cols] for k, x in enumerate(h.entries)))
    else:
        raise PreconditionError(f"unknown transform step {step!r}")
    return WeightedRep(new, r.mult)


def _odd_map(a: IntMatrix, h: IntMatrix, move: str) -> int:
    """det(a), for a square map on the weight lattice of h with odd determinant."""
    dta = det(a) if a.rows == a.cols == h.rows else 0
    if dta % 2 == 0:
        raise PreconditionError(f"{move} needs a square odd-determinant map")
    return dta


def _odd_factors(factors: Sequence[int], h: IntMatrix, what: str) -> Sequence[int]:
    """factors, when they are odd and there is one per column of h."""
    if len(factors) != h.cols or any(f % 2 == 0 for f in factors):
        raise PreconditionError(f"{what} must be odd, one per column")
    return factors


def simplify(m: BinaryMatroid) -> tuple[BinaryMatroid, list[int | None]]:
    """Drop zero columns and merge duplicate columns (equal over F2; when a
    lift is present the merged columns must be projectively equal over Q).
    Returns the simplification and the old-index -> new-index mapping."""
    cols = m.columns
    mapping: list[int | None] = [None] * m.size
    keep: list[int] = []
    first_with: dict[int, int] = {}
    for j, c in enumerate(cols):
        if c == 0:
            continue
        if c in first_with:
            k = first_with[c]
            mapping[j] = mapping[k]
            if m.lift is not None and rank_q(m.lift.select_cols([k, j])) != 1:
                raise PreconditionError(
                    f"columns {k} and {j} equal over F2 but not parallel over Q")
            continue
        first_with[c] = j
        mapping[j] = len(keep)
        keep.append(j)
    labels = tuple(m.labels[j] for j in keep)
    if m.lift is not None:
        lift = m.lift.select_cols(keep)
        rep = lift.mod2()
    else:
        lift = None
        rep = m.rep.transpose()
        rep = BitMatrix(len(keep), m.rank,
                        tuple(rep.bits[j] for j in keep)).transpose()
    return BinaryMatroid(labels, rep, lift, ("simplify", m.provenance)), mapping
