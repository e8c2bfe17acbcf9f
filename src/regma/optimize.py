"""Exact rational linear programming and the central computations: graph
systoles, matroid cogirths, weighted-representation minima, and the
recursive bound calculators.

Systole and cogirth both maximise, over the simplex, the minimum of 0/1
linear forms. The one LP solved is that max-min LP over the active rows:
lp_max starts from the known feasible basis (lam_0 on sum lam = 1, every
slack basic) and pivots by Bland's rule on a fraction-free integer tableau
of the nonbasic columns (Bareiss pivots over one common divisor, as in lrs),
each row packed into one int with a signed slot per column, wide enough by
Hadamard's bound that a row update is one exact big-int expression.
solve_maxmin solves the full problem by cutting planes, each round resuming
the previous round's pivot path (a cold solve, the empty LP's) from the last
tableau kept, every 4 pivots, before its new rows first change it, with the
minimum-weight-cycle search (resp. a Gray-code walk over the nonzero F2 dual
vectors) as separation oracle, all on integers over lp_max's divisor;
Fractions are built after the last round. verify_maxmin checks both sides
of every optimum, given in ints and Fractions: primal weights reaching the
value, and a dual distribution over forms whose largest load is the value.
Neither checker shares oracle code with its solver: the systole checker
asks the value-only `min_cycle_value`, and the cogirth checker enumerates
the dual vectors plainly; both sum the weights scaled once to integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (AcyclicGraphError, PreconditionError, VerificationError,
                     check_guard)
from .exact import Rat, scale_to_ints
from .graph import (Cycle, EdgeWeights, MultiGraph, betti, check_weights,
                    min_cycle_value, min_cycles_per_edge, min_weight_cycle)
from .matroid import BinaryMatroid, WeightedRep

ZERO = Fraction(0)


def _width(n: int) -> int:
    """The least slot width K with 2^(K-1) above Hadamard's bound
    (n + 2)^((n+2)/2) on a minor of order n + 2 of a 0/±1 matrix."""
    return (((n + 2) ** (n + 2)).bit_length() + 3) // 2


def _pack(xs: Sequence[int], width: int) -> int:
    """The row xs as one int: xs[c] in the signed slot of width bits at bit
    width·c, so that the int is sum of xs[c]·2^(width·c)."""
    return sum(x << width * c for c, x in enumerate(xs))


def _eliminate(rows: list[int], col: list[int], pr: int, p: int, at: int, d: int,
               leave: int | None) -> list[int]:
    """Packed rows after the Bareiss pivot on entry p of the packed row pr,
    in the slot at bit `at`, over divisor d; col[i] is rows[i]'s entry f in
    that slot, and rows[leave] is pr (None: pr is not among them). Row pr
    gets d in the slot; each other row R becomes (p·R − f·pr) / d with −f in
    the slot, computed as (p·R − f·(pr + d·2^at)) / d: two big-int products
    and one division for all its slots. Slot by slot, that numerator is d
    times the new row (Bareiss), so the division is exact, and its quotient
    is the packed new row. Pivoting again undoes it."""
    q = pr + (d << at)
    out = [(p * r - f * q) // d if f else p * r // d if p != d else r
           for r, f in zip(rows, col)]
    if leave is not None:
        out[leave] = pr + ((d - p) << at)
    return out


def lp_max(n: int, ub: Sequence[frozenset[int]],
           trail: list) -> tuple[tuple[int, ...], int, tuple[int, ...], int]:
    """Maximize t over distributions lam on n items subject to t <= lam(S)
    for every row S (an index set) of ub, by simplex with Bland's
    anti-cycling rule. Returns (lam, t, duals, d): numerators over d, one dual per row.

    Variables: lam_0..lam_{n-1}, then t = n, then row r's slack n + 1 + r.
    The start is the feasible basis that phase 1 of a two-phase simplex
    reaches in its one pivot: lam_0 basic on sum lam = 1 and every slack
    basic, with lam_0 eliminated from the rows that contain item 0. The
    tableau is fraction-free and condensed, as in Avis's lrs: an integer
    matrix M over one divisor d > 0 (Bareiss pivots), with only the n
    nonbasic columns (variable cols[c] in column c) and the rhs. Each basic
    column of the true tableau M / d is a unit vector, so every pivot is
    that of the rational tableau. With a row the LP is bounded (t <= 1).

    Each row of M is packed into one int (_pack), column c in the slot of
    K = _width(n) bits at bit K·c and the rhs in slot n; K depends on n
    alone, so a trail keeps its width. Every entry, d and the objective row
    included, is a minor of order at most n + 2 of the LP's 0/±1 matrix,
    so Hadamard's bound keeps it strictly inside the signed slot: the
    packed rows add, scale and divide exactly as their entries do, and a
    pivot is a few big-int operations per row.

    lp_max overwrites trail with its pivots (enter, pivot row, divisor) and
    its tableau every 4 pivots and at the end; [] is the trail of the empty
    LP: no pivots, its sum and objective rows kept at step 0. Bland's rule
    resumes from the last tableau kept at or before the first pivot that a
    new row, carried along the trail, wins outright (its slack, the largest
    variable, loses ties), so every pivot is the cold solve's."""
    if n < 1 or not ub:
        raise PreconditionError("the max-min LP needs at least one item and one row")
    K = _width(n)
    # r + bias has every slot in [0, 2^K), so a slot reads off by shift and mask.
    half, mask, top = 1 << K - 1, (1 << K) - 1, K * n
    bias = half * (((1 << K * (n + 1)) - 1) // mask)
    # r + lift holds entry + half - 1 in each slot, so a slot's top bit (in
    # bias) is set exactly where r's entry is positive. In the objective row
    # that marks the improving columns: its rhs, -d * t, is never positive.
    lift = bias - bias // half

    def entry(r: int, at: int) -> int:  # written out in the pivot loop, the hot path
        return ((r + bias >> at) & mask) - half

    # Row 0 is sum lam = 1 with lam_0 basic, the last row the objective row:
    # d times the reduced costs. A new row r is t - lam(S) + slack_r = 0,
    # plus row 0 where S holds item 0, which eliminates lam_0.
    m, old, path, kept = trail or (n, [], [], {0: (
        [_pack([1] * (n - 1) + [0, 1], K), _pack([0] * (n - 1) + [1, 0], K)], 1,
        list(range(1, n + 1)), [0])})
    if m != n or list(ub[:len(old)]) != old:
        raise PreconditionError("the trail is not of an LP on a prefix of these rows")
    k = len(ub)
    new = [_pack([(0 in s) - (i in s) for i in range(1, n)] + [1, int(0 in s)], K)
           for s in ub[len(old):]]
    slacks, keep = list(range(n + 1 + len(old), n + 1 + k)), {}
    for s in range(len(path) + 1):
        if s in kept:
            tab, d, cols, basis = kept[s]
            keep[s] = tab[:-1] + new + tab[-1:], d, cols, basis + slacks
        if s == len(path):
            break
        enter, pr, ds = path[s]
        at = K * enter
        p, b = entry(pr, at), entry(pr, top)
        col = [entry(r, at) for r in new]
        if any(a > 0 and entry(r, top) * p < b * a for r, a in zip(new, col)):
            break
        new = _eliminate(new, col, pr, p, at, ds, None)
    tab, d, cols, basis = keep[last := max(keep)]
    cols, basis, steps = cols[:], basis[:], path[:last]
    while True:
        if len(steps) % 4 == 0:
            keep[len(steps)] = tab, d, cols[:], basis[:]
        # Bland's rule: the improving column of least variable, then the
        # least ratio (cross-multiplied), ties to the least basis variable.
        # The objective row is read by its signs alone, and the entering
        # column once for both the ratio test and the pivot.
        pos, enter = (tab[-1] + lift) & bias, None
        while pos:
            c = (pos.bit_length() - 1) // K
            pos ^= half << K * c
            if enter is None or cols[c] < cols[enter]:
                enter = c
        if enter is None:
            break
        at = K * enter
        col = [((r + bias >> at) & mask) - half for r in tab]
        leave = -1
        for i in range(k + 1):
            a = col[i]
            if a > 0:
                b = (tab[i] + bias >> top) - half
                if leave < 0 or (b * den, basis[i]) < (num * a, basis[leave]):
                    leave, num, den = i, b, a
        if leave < 0:
            raise VerificationError("max-min LP found no leaving row")
        pr, p = tab[leave], col[leave]
        steps.append((enter, pr, d))
        tab, d = _eliminate(tab, col, pr, p, at, d, leave), p
        cols[enter], basis[leave] = basis[leave], cols[enter]
    keep[len(steps)] = tab, d, cols[:], basis[:]
    trail[:] = n, list(ub), steps, keep
    # A nonbasic lam_j is 0. The objective row's rhs is -d * t; the dual of
    # a row is minus the reduced cost of its slack, 0 while that is basic.
    obj = [entry(tab[-1], K * c) for c in range(n + 1)]
    rhs, cost = {j: entry(r, top) for j, r in zip(basis, tab)}, dict(zip(cols, obj))
    return (tuple(rhs.get(j, 0) for j in range(n)), -obj[n],
            tuple(-cost.get(j, 0) for j in range(n + 1, n + 1 + k)), d)


def _load(row: frozenset[int], w: Sequence[Rat]) -> Rat:
    return sum((w[i] for i in row), ZERO)


def solve_maxmin(n: int, seeds: Sequence[frozenset[int]], separate):
    """max over distributions lam on n items of min lam(S) over the rows S
    (index sets) of an implicit family, by cutting planes: separate(lam), on
    lam's numerators over the LP divisor, returns the family's minimum on that
    scale and candidate rows; those lam violates join the LP. Returns the
    Fraction lam, the value, the active rows in the order they joined, and
    the LP duals as a distribution over rows.

    Every round must make progress: the family's minimum cannot exceed the
    LP value, and below it there must be a violated row not yet in the LP,
    since every active row weighs at least t. A faulty LP or oracle that
    breaks either raises VerificationError instead of looping."""
    rows, trail = list(seeds), []
    while True:
        lam, t, duals, d = lp_max(n, rows, trail)
        got, new = separate(lam)
        if got == t:
            break
        violated = [s for s in new if sum(lam[i] for i in s) < t]
        if got > t or not violated or not set(rows).isdisjoint(violated):
            raise VerificationError(f"cutting-plane round made no progress at "
                                    f"t = {Fraction(t, d)} (oracle minimum {Fraction(got, d)})")
        rows.extend(violated)
    # Rows are nonempty, so t > 0 is basic at the optimum and its reduced
    # cost 1 - sum y is 0: the duals already form a distribution.
    dual = sorted(((s, Fraction(y, d)) for s, y in zip(rows, duals) if y),
                  key=lambda p: sorted(p[0]))
    return tuple(Fraction(x, d) for x in lam), Fraction(t, d), rows, dual


def verify_maxmin(n: int, weights: Sequence[Rat], value: Rat, minimum, support,
                  tight, dual) -> bool:
    """Both sides of a max-min certificate: the weights are a distribution
    on n items whose oracle minimum and tight rows weigh value, and dual is
    a distribution over rows whose largest load on an item is value.
    support(row) is the row's index set, or None for an invalid row."""
    w = tuple(weights)
    if not all(isinstance(x, (int, Fraction)) for x in (*w, value, *(y for _, y in dual))):
        return False
    if len(w) != n or any(x < 0 for x in w) or sum(w, ZERO) != 1:
        return False
    if minimum(w) != value:
        return False
    for row in tight:
        s = support(row)
        if s is None or _load(s, w) != value:
            return False
    total = ZERO
    load = [ZERO] * n
    for row, y in dual:
        s = support(row)
        if s is None or y < 0:
            return False
        total += y
        for i in s:
            load[i] += y
    return total == 1 and max(load) == value


@dataclass(frozen=True)
class SystoleResult:
    """Exact systole with optimal weights and both certificates: the weights
    realize value as their minimum cycle weight, and the dual distribution
    over cycles has maximum edge load equal to value."""

    value: Rat
    weights: EdgeWeights
    tight_cycles: tuple[Cycle, ...]
    dual_dist: tuple[tuple[Cycle, Rat], ...]


def _seed_cycles(g: MultiGraph) -> list[frozenset[int]]:
    """Minimum cycles at uniform weights, and through each edge weighing 0."""
    seeds = {min_weight_cycle(g, [1] * g.m)[0].edge_ids}
    for e in range(g.m):
        w = [1] * g.m
        w[e] = 0
        ids = min_weight_cycle(g, w)[0].edge_ids
        if e in ids:
            seeds.add(ids)
    return sorted(seeds, key=sorted)


def systole(g: MultiGraph) -> SystoleResult:
    """Exact sys(G) = max over probability edge weights of the minimum cycle
    weight, via cutting planes with min_weight_cycle as separation oracle
    (all violated per-edge minimum cycles join the active set each round)."""
    if betti(g) == 0:
        raise AcyclicGraphError("systole of a forest")

    def separate(lam):
        per_edge = sorted(set(min_cycles_per_edge(g, lam).values()))
        return per_edge[0][0], [frozenset(ids) for _, ids in per_edge]

    lam, t, rows, dual = solve_maxmin(g.m, _seed_cycles(g), separate)
    res = SystoleResult(t, lam, tuple(Cycle(s) for s in rows if _load(s, lam) == t),
                        tuple((Cycle(s), y) for s, y in dual))
    if not verify_systole(g, res):
        raise VerificationError("systole certificate failed verification")
    return res


def verify_systole(g: MultiGraph, res: SystoleResult) -> bool:
    """Check both optimality directions from the certificates alone. A
    graph without cycles has no systole, so every certificate fails."""
    if betti(g) == 0:
        return False

    def support(c: Cycle) -> frozenset[int] | None:
        try:
            return Cycle.from_edges(g, c.edge_ids).edge_ids
        except PreconditionError:
            return None

    return verify_maxmin(g.m, res.weights, res.value,
                         lambda w: min_cycle_value(g, w), support,
                         res.tight_cycles, res.dual_dist)


def systole_weighted(g: MultiGraph, w: Sequence[Rat]) -> tuple[Rat, Cycle]:
    """sys(G, w) = min cycle weight / total weight, with witness cycle."""
    w = check_weights(g, w)
    total = sum(w, ZERO)
    if total == 0:
        raise PreconditionError("total weight must be positive")
    if betti(g) == 0:
        raise AcyclicGraphError("weighted systole of a forest")
    c, v = min_weight_cycle(g, w)
    return v / total, c


@dataclass(frozen=True)
class CogirthResult:
    """max over probability weights of the minimum of f_lambda over nonzero
    F2 dual vectors, with both certificates: witness attains the minimum at
    the optimal weights, and dual is a distribution over dual vectors (as
    bitmasks) whose maximum load on an element equals value."""

    value: Rat
    weights: tuple[Rat, ...]
    witness: int
    dual: tuple[tuple[int, Rat], ...]


def _dual_support(v: int, cols: Sequence[int]) -> frozenset[int]:
    """The elements f_lambda(v) sums over: columns outside the kernel of v."""
    return frozenset(i for i, c in enumerate(cols) if (v & c).bit_count() & 1)


def _min_dual_vector(cols: Sequence[int], lam: Sequence[Rat], d: int) -> tuple[Rat, int]:
    """(least f_lam(v) over nonzero dual vectors v, least v attaining it),
    by plain enumeration on lam scaled once to integers: verify_cogirth's
    oracle, which shares no code with the solver's _gray_min_dual_vector."""
    den, weights = scale_to_ints(lam)
    best = min(((sum(w for c, w in zip(cols, weights) if (v & c).bit_count() & 1), v)
                for v in range(1, 1 << d)), default=None)
    return (None, None) if best is None else (Fraction(best[0], den), best[1])


def _gray_min_dual_vector(cols: Sequence[int], weights: Sequence[int], d: int) -> tuple[int, int]:
    """_min_dual_vector for d >= 1 on integer weights, by a Gray-code walk:
    flipping bit k of v changes f(v) only on the columns that have bit k,
    each joining or leaving the sum."""
    merged: dict[int, int] = {}
    for c, w in zip(cols, weights):
        if c:
            merged[c] = merged.get(c, 0) + w
    # step[k] holds, for each column with bit k, what flipping k next adds
    # to f: its weight while v·c is even, minus it while odd.
    step = [[] for _ in range(d)]
    for c, w in merged.items():
        if w:
            cell = [w]
            for k in range(d):
                if c >> k & 1:
                    step[k].append(cell)
    f = v = 0
    best, best_v = None, 0
    for g in range(1, 1 << d):
        k = (g & -g).bit_length() - 1
        v ^= 1 << k
        for cell in step[k]:
            f += cell[0]
            cell[0] = -cell[0]
        if best is None or f < best or (f == best and v < best_v):
            best, best_v = f, v
    return best, best_v


def cogirth(m: BinaryMatroid) -> CogirthResult:
    """c(M) = max_lambda min over nonzero dual vectors v of
    f_lambda(v) = sum of lambda_i over columns not in ker v; the minimum over
    dual vectors equals the minimum over matroid hyperplane complements.
    Cutting planes add the minimum dual vector each round."""
    d = m.rank
    check_guard((1 << d) - 1, (1 << 12) - 1, "cogirth dual-vector enumeration")
    if d == 0:
        raise PreconditionError("cogirth of a rank-0 matroid")
    cols = m.columns
    found = [1 << i for i in range(d)]

    def separate(lam):
        got, v = _gray_min_dual_vector(cols, lam, d)
        found.append(v)
        return got, [_dual_support(v, cols)]

    lam, t, _, dual = solve_maxmin(m.size, [_dual_support(v, cols) for v in found],
                                   separate)
    mask = {_dual_support(v, cols): v for v in found}
    res = CogirthResult(t, lam, found[-1], tuple(sorted((mask[s], y) for s, y in dual)))
    if not verify_cogirth(m, res):
        raise VerificationError("cogirth certificate failed verification")
    return res


def verify_cogirth(m: BinaryMatroid, res: CogirthResult) -> bool:
    """Check both optimality directions; the witness is a tight row."""
    cols, d = m.columns, m.rank

    def support(v: int) -> frozenset[int] | None:
        return _dual_support(v, cols) if type(v) is int and 0 < v < 1 << d else None

    return verify_maxmin(m.size, res.weights, res.value,
                         lambda w: _min_dual_vector(cols, w, d)[0], support,
                         (res.witness,), res.dual)


def c_of_rep(r: WeightedRep) -> tuple[Rat, int]:
    """min over nonzero F2 dual vectors of f_mult; by the hyperplane
    translation this equals the rational minimization with the same weight
    matrix."""
    d = r.h.rows
    check_guard((1 << d) - 1, (1 << 12) - 1, "c_of_rep dual-vector enumeration")
    if d == 0:
        raise PreconditionError("c_of_rep of a rank-0 representation")
    den, mult = scale_to_ints(r.mult)
    value, v = _gray_min_dual_vector(r.h.mod2().col_masks(), mult, d)
    return Fraction(value, den), v


STable = dict[int, Rat]


def bound_small_cycle(b: int, g: int, h: int, s_table: STable) -> Rat:
    """Reciprocal systole bound h/g + s(b-h)^{-1} from removing the h
    heaviest edges of a g-cycle in a 3-edge-connected graph."""
    if not 1 <= h <= min(g, b - 1):
        raise PreconditionError("need 1 <= h <= min(g, b-1)")
    if b - h not in s_table:
        raise PreconditionError(f"s({b - h}) not available in the table")
    return Fraction(h, g) + 1 / s_table[b - h]


def bound_large_girth(b: int, g: int, s_table: STable) -> Rat:
    """Best applicable reciprocal bound among the three ball-removal
    estimates for cubic graphs with all cycles of length >= g; cases whose
    table entry is missing are skipped."""
    cands = []
    if g >= 2 and b >= 3 and b - 2 in s_table:
        cands.append(Fraction(b - 1, b - 2) / s_table[b - 2])
    if g >= 3 and b >= 4 and b - 3 in s_table:
        cands.append(Fraction(3 * b - 3, 3 * b - 8) / s_table[b - 3])
    if g >= 4 and b >= 6 and b - 5 in s_table:
        cands.append(Fraction(b - 1, b - 4) / s_table[b - 5])
    if not cands:
        raise PreconditionError("no large-girth case applies")
    return max(cands)


def bound_decomposable(d: int, c_table: STable) -> Rat:
    """Reciprocal cogirth bound for decomposable regular matroids of rank d:
    min over d1 + d2 = d - 2 of c(d1)^{-1} + c(d2)^{-1}."""
    if d < 4:
        raise PreconditionError("decomposable bound needs rank >= 4")
    best = None
    for d1 in range(1, d - 2):
        d2 = d - 2 - d1
        if d1 not in c_table or d2 not in c_table:
            raise PreconditionError(f"c({d1}) or c({d2}) missing from the table")
        val = 1 / c_table[d1] + 1 / c_table[d2]
        if best is None or val < best:
            best = val
    return best


S_TABLE: STable = {
    1: Fraction(1), 2: Fraction(2, 3), 3: Fraction(1, 2), 4: Fraction(4, 9),
    5: Fraction(3, 8), 6: Fraction(1, 3), 7: Fraction(3, 10), 8: Fraction(2, 7),
    9: Fraction(1, 4),
}

C_TABLE: STable = {
    1: Fraction(1), 2: Fraction(2, 3), 3: Fraction(1, 2), 4: Fraction(4, 9),
    5: Fraction(2, 5), 6: Fraction(1, 3), 7: Fraction(3, 10), 8: Fraction(2, 7),
    9: Fraction(1, 4),
}
