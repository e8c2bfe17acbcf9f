"""The rank-6 six-involutions theorem: construct six distinct nonzero F2
functionals such that every ground element lies in at least four of their
kernels, so the total fixed-set codimension is at most twice the total
multiplicity for any weight vector.

Strategy per construction provenance: graphic matroids use the vertex
functionals (each edge fails exactly its two endpoint functionals);
cographic ones use a family of cycles covering every edge at most twice;
the sporadic matroid uses the five consecutive-pair functionals; k-sums
combine piece functionals pairwise so they descend to the quotient. Ranks
below six are padded by free coordinates whose functionals contain every
element. Every constructive answer is verified, with a pruned exhaustive
search over the 63 nonzero functionals as fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DisconnectedGraphError, GuardExceeded, PreconditionError, check_guard
from .exact import Rat, f2_solve_left
from .graph import Cycle, MultiGraph, betti
from .matroid import BinaryMatroid
from .surface import embeds_in


@dataclass(frozen=True)
class InvolutionSet:
    """Six distinct nonzero functionals on F2^6 (bitmasks) with per-element
    kernel counts, all at least four."""

    vs: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.vs) != 6 or len(set(self.vs)) != 6 or 0 in self.vs:
            raise PreconditionError("need six pairwise distinct nonzero vectors")
        if any(c < 4 for c in self.counts):
            raise PreconditionError("every element must lie in at least four kernels")


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _kernel_counts(cols: Sequence[int], vs: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(1 for v in vs if not _parity(v & c)) for c in cols)


def six_involutions(m: BinaryMatroid) -> InvolutionSet:
    """Six involutions for a regular matroid of rank <= 6 (lower ranks padded
    by free coordinates). Constructive per provenance, verified, with
    exhaustive fallback; exhaustion without a witness signals a non-regular
    input."""
    r = m.rank
    if r > 6:
        raise PreconditionError("six_involutions requires rank at most 6")
    pad = 6 - r
    cols = [c for c in m.columns]  # F2^r masks; padding bits r..5 are zero

    candidates = _provenance_functionals(m)
    if candidates is not None:
        vs: list[int] = []
        for j in range(pad):  # free-coordinate functionals contain everything
            vs.append(1 << (r + j))
        for f in candidates:
            if f and f not in vs:
                vs.append(f)
            if len(vs) == 6:
                break
        if len(vs) == 6:
            counts = _kernel_counts(cols, vs)
            if min(counts) >= 4:
                return InvolutionSet(tuple(vs), counts)
    found = _fallback_search(cols, r, pad)
    if found is None:
        raise PreconditionError(
            "no six involutions exist; the input violates regularity")
    return InvolutionSet(found, _kernel_counts(cols, found))


def verify_involutions(m: BinaryMatroid, mult: Sequence[Rat],
                       s: InvolutionSet) -> tuple[bool, Rat, Rat]:
    """Check sum of fixed-set codimensions k_i = sum of mult over elements
    outside ker v_i against twice the total multiplicity."""
    if len(mult) != m.size:
        raise PreconditionError("one multiplicity per element")
    mult = [Fraction(x) for x in mult]
    if any(x < 0 for x in mult):
        raise PreconditionError("multiplicities must be nonnegative")
    cols = m.columns
    total = sum(mult, Fraction(0))
    ksum = Fraction(0)
    for v in s.vs:
        ksum += sum((mult[i] for i, c in enumerate(cols) if _parity(v & c)),
                    Fraction(0))
    return ksum <= 2 * total, ksum, 2 * total


def _provenance_functionals(m: BinaryMatroid) -> list[int] | None:
    """Functionals (bitmasks over the rank coordinates) such that every
    element fails at most two of them, derived from the construction."""
    kind = m.provenance[0]
    if kind == "graphic":
        return _graphic_functionals(m)
    if kind == "cographic":
        return _cographic_functionals(m)
    if kind == "r10":
        return [_mask({i % 5, (i + 1) % 5}) for i in range(5)]
    if kind == "sum1":
        return _sum_functionals(m, k=1)
    if kind == "sum2":
        return _sum_functionals(m, k=2)
    if kind == "sum3":
        return _sum_functionals(m, k=3)
    return None


def _mask(bits) -> int:
    out = 0
    for b in bits:
        out |= 1 << b
    return out


def _graphic_functionals(m: BinaryMatroid) -> list[int] | None:
    """Vertex functionals: solve f·rep = incidence row of each vertex; an
    edge fails exactly the functionals of its endpoints."""
    _, g, _root = m.provenance
    out = []
    for v in range(g.n):
        target = 0
        for j, (a, b) in enumerate(g.edges):
            if (a == v) != (b == v):
                target |= 1 << j
        f = f2_solve_left(m.rep, target)
        if f is None:
            return None
        out.append(f)
    return sorted(set(out) - {0})


def _cographic_functionals(m: BinaryMatroid) -> list[int] | None:
    """Cycle functionals: the pairing of a cycle class with the cohomology
    columns is edge membership, so a family of cycles covering every edge at
    most twice gives the kernels."""
    _, g = m.provenance
    try:
        cycles = cographic_cycle_cover(g, betti(g))
    except PreconditionError:
        return None
    out = []
    for c in cycles:
        target = _mask(c.edge_ids)
        f = f2_solve_left(m.rep, target)
        if f is None:
            return None
        out.append(f)
    return sorted(set(out) - {0})


def _sum_functionals(m: BinaryMatroid, k: int) -> list[int] | None:
    """Combine piece functionals so they descend to the k-sum quotient:
    vanish-on-glue functionals pass through one-sided; the others pair up
    across the two pieces by matching values on the glued elements."""
    if k == 1:
        _, m1, m2 = m.provenance
        glue1: list[int] = []
        glue2: list[int] = []
    elif k == 2:
        _, m1, i1, m2, i2 = m.provenance
        glue1, glue2 = [i1], [i2]
    else:
        _, m1, t1, m2, t2 = m.provenance
        glue1, glue2 = list(t1), list(t2)

    f1 = _provenance_functionals(m1)
    f2 = _provenance_functionals(m2)
    if f1 is None or f2 is None:
        return None
    d1, d2 = m1.rank, m2.rank

    def profile(fs, mm, glue):
        out = []
        for f in fs:
            out.append((f, tuple(_parity(f & mm.columns[i]) for i in glue)))
        return out

    p1 = profile(f1, m1, glue1)
    p2 = profile(f2, m2, glue2)
    zero = (0,) * len(glue1)
    pool: list[int] = []  # functionals on F2^{d1+d2} vanishing on the glue
    used2: set[int] = set()
    for f, sig in p1:
        if sig == zero:
            pool.append(f)
    for gfn, sig in p2:
        if sig == zero:
            pool.append(gfn << d1)
    for f, sig in p1:
        if sig == zero:
            continue
        mate = next((j for j, (gfn, gsig) in enumerate(p2)
                     if j not in used2 and gsig == sig), None)
        if mate is not None:
            used2.add(mate)
            pool.append(f | (p2[mate][0] << d1))
    # Descend each pooled functional to the quotient coordinates.
    out = []
    for phi in pool:
        f = _descend(m, m1, m2, phi)
        if f is not None:
            out.append(f)
    return sorted(set(out) - {0})


def _descend(m: BinaryMatroid, m1: BinaryMatroid, m2: BinaryMatroid,
             phi: int) -> int | None:
    """Express a functional on F2^{d1+d2} (vanishing on the glue) in the
    coordinates of the sum's representation: solve f·rep = phi-values on the
    sum's columns, using the known unquotiented preimages."""
    d1 = m1.rank
    kind = m.provenance[0]
    if kind == "sum1":
        drop1, drop2 = set(), set()
    elif kind == "sum2":
        drop1, drop2 = {m.provenance[2]}, {m.provenance[4]}
    else:
        drop1, drop2 = set(m.provenance[2]), set(m.provenance[4])
    values = []
    for j in range(m1.size):
        if j not in drop1:
            values.append(_parity(phi & m1.columns[j]))
    for j in range(m2.size):
        if j not in drop2:
            values.append(_parity((phi >> d1) & m2.columns[j]))
    target = 0
    for j, bit in enumerate(values):
        if bit:
            target |= 1 << j
    return f2_solve_left(m.rep, target)


def _fallback_search(cols: Sequence[int], r: int, pad: int) -> tuple[int, ...] | None:
    """Exhaustive search over 6-subsets of the 63 nonzero functionals on
    F2^6, processing elements with the fewest satisfying functionals first
    and pruning as soon as an element fails three chosen functionals."""
    distinct = sorted(set(cols))
    vectors = list(range(1, 64))
    fails = {v: [i for i, c in enumerate(distinct) if _parity(v & c)]
             for v in vectors}
    # Padding coordinates: functionals touching only bits >= r never fail.
    chosen: list[int] = []
    fail_count = [0] * len(distinct)

    def extend(start: int) -> tuple[int, ...] | None:
        if len(chosen) == 6:
            return tuple(chosen)
        for v in vectors[start - 1:]:
            bad = False
            touched = []
            for i in fails[v]:
                fail_count[i] += 1
                touched.append(i)
                if fail_count[i] > 2:
                    bad = True
            if not bad:
                chosen.append(v)
                got = extend(v + 1)
                if got is not None:
                    return got
                chosen.pop()
            for i in touched:
                fail_count[i] -= 1
        return None

    return extend(1)


def cographic_cycle_cover(g: MultiGraph, b: int) -> list[Cycle]:
    """b simple cycles, pairwise distinct, with every edge on at most two:
    from the bounded faces of a planar embedding, else from the faces of a
    projective-plane embedding, else the six 4-cycles of the two K23 blocks
    (the non-projective-planar Betti-6 case), else exhaustive search."""
    if betti(g) != b or b > 6:
        raise PreconditionError("cover needs betti(g) = b <= 6")
    for chi, orientable in ((2, True), (1, False)):
        cert = _try_embedding(g, chi, orientable)
        if cert is None:
            continue
        cycles = _face_cycles(g, cert.faces, drop_one=(chi == 2))
        if cycles is not None and len(cycles) == b:
            return cycles
    cycles = _k23_pair_cycles(g)
    if cycles is not None and len(cycles) == b:
        return cycles
    return _search_cycle_cover(g, b)


def _try_embedding(g: MultiGraph, chi: int, orientable: bool):
    try:
        return embeds_in(g, chi, orientable)
    except (GuardExceeded, DisconnectedGraphError):
        return None


def _face_cycles(g: MultiGraph, faces, drop_one: bool) -> list[Cycle] | None:
    walks = sorted(faces, key=len)
    if drop_one:
        walks = walks[:-1]  # planar: drop one face, the rest are a basis
    out: list[Cycle] = []
    seen: set[frozenset[int]] = set()
    for walk in walks:
        edges = [d >> 1 for d in walk]
        odd = frozenset(e for e in set(edges) if edges.count(e) % 2)
        ids = odd if odd else None
        if ids is None:
            return None
        try:
            c = Cycle.from_edges(g, ids)
        except PreconditionError:
            c = _extract_cycle(g, ids)
            if c is None:
                return None
        if c.edge_ids in seen:
            return None
        seen.add(c.edge_ids)
        out.append(c)
    # Face walks use each edge side once, so edge membership stays <= 2.
    use = [0] * g.m
    for c in out:
        for e in c.edge_ids:
            use[e] += 1
    if any(u > 2 for u in use):
        return None
    return out


def _extract_cycle(g: MultiGraph, ids: frozenset[int]) -> Cycle | None:
    """Some simple cycle inside an even edge set (remove double points)."""
    sub = sorted(ids)
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in sub:
        u, v = g.edges[e]
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))
    start = min(adj)
    stack = [(start, [], set())]
    while stack:
        x, path, verts = stack.pop()
        for y, e in adj[x]:
            if path and e == path[-1]:
                continue
            if y == start and (path or g.is_loop(e)):
                return Cycle(frozenset(path + [e]))
            if y not in verts and y != start:
                stack.append((y, path + [e], verts | {y}))
    return None


def _k23_pair_cycles(g: MultiGraph) -> list[Cycle] | None:
    """The six 4-cycles of two vertex-disjoint K23 subgraphs, when present."""
    from itertools import combinations

    n = g.n
    adj = [set() for _ in range(n)]
    for u, v in g.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    k23s = []
    for a, b in combinations(range(n), 2):
        if b in adj[a]:
            continue
        common = adj[a] & adj[b]
        if len(common) >= 3:
            for trip in combinations(sorted(common), 3):
                k23s.append((frozenset((a, b)), frozenset(trip)))
    for (ab1, t1), (ab2, t2) in combinations(k23s, 2):
        if (ab1 | t1) & (ab2 | t2):
            continue
        cycles = []
        for ab, t in ((ab1, t1), (ab2, t2)):
            a, b = sorted(ab)
            for x, y in combinations(sorted(t), 2):
                ids = [_find_edge(g, a, x), _find_edge(g, x, b),
                       _find_edge(g, b, y), _find_edge(g, y, a)]
                cycles.append(Cycle(frozenset(ids)))
        return cycles
    return None


def _find_edge(g: MultiGraph, u: int, v: int) -> int:
    for i, (a, b) in enumerate(g.edges):
        if {a, b} == {u, v}:
            return i
    raise PreconditionError(f"no edge {u}-{v}")


def _search_cycle_cover(g: MultiGraph, b: int) -> list[Cycle]:
    """Backtracking over enumerated cycles for b distinct cycles with each
    edge used at most twice."""
    from .graph import enumerate_cycles

    cycles = enumerate_cycles(g)
    check_guard(len(cycles), 5000, "cycle cover search")
    use = [0] * g.m
    chosen: list[Cycle] = []

    def extend(start: int) -> bool:
        if len(chosen) == b:
            return True
        for i in range(start, len(cycles)):
            c = cycles[i]
            if any(use[e] + 1 > 2 for e in c.edge_ids):
                continue
            for e in c.edge_ids:
                use[e] += 1
            chosen.append(c)
            if extend(i + 1):
                return True
            chosen.pop()
            for e in c.edge_ids:
                use[e] -= 1
        return False

    if not extend(0):
        raise PreconditionError("no cycle cover found; input outside the lemma")
    return list(chosen)
