"""Isomorph-free generation of connected cubic simple graphs, plus the
canonical-labeling and automorphism machinery backing it.

Growth step (n -> n+2): subdivide two distinct edges and join the midpoints
(H-insertion), or expand a vertex into a triangle. Reversibility: in a graph
of girth >= 4 any non-bridge edge H-reduces without creating parallel edges;
in a girth-3 graph a triangle whose outside neighbors are distinct contracts
to a vertex. A graph admitting neither move has every triangle inside a
diamond (K4 minus an edge) and every non-bridge edge touching one, which
forces a tree-or-cycle arrangement of diamond blocks. Those residual graphs
are generated directly as seeds by splicing chains of diamonds into the
edges of small cubic multigraphs. Completeness is cross-checked against the
independent labeled-count oracle in the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .errors import PreconditionError, VerificationError, check_guard
from .graph import MultiGraph, betti, girth, is_three_edge_connected


def _adjacency_counts(g: MultiGraph) -> list[list[int]]:
    """counts[u][v] = number of u-v edges; counts[v][v] = loops at v."""
    counts = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        if u == v:
            counts[u][u] += 1
        else:
            counts[u][v] += 1
            counts[v][u] += 1
    return counts


def _refine_colors(g: MultiGraph, counts: list[list[int]]) -> list[int]:
    """Iterated neighborhood color refinement (1-WL); returns stable colors."""
    colors = [(counts[v][v], g.degree(v)) for v in range(g.n)]
    ids = {c: i for i, c in enumerate(sorted(set(colors)))}
    cur = [ids[c] for c in colors]
    while True:
        sig = [
            (cur[v], tuple(sorted((cur[u], counts[v][u])
                                  for u in range(g.n) if counts[v][u] and u != v)))
            for v in range(g.n)
        ]
        ids = {s: i for i, s in enumerate(sorted(set(sig)))}
        nxt = [ids[s] for s in sig]
        if nxt == cur:
            return cur
        cur = nxt


def canonical_form(g: MultiGraph) -> str:
    """Canonical edge-list string; equal iff graphs are isomorphic (loop and
    parallel multiplicities included)."""
    check_guard(g.n, 20, "canonical_form")
    perm = canonical_order(g)
    pos = {v: i for i, v in enumerate(perm)}
    edges = sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges)
    body = ";".join(f"{u},{v}" for u, v in edges)
    return f"{g.n}|{body}"


def canonical_order(g: MultiGraph) -> tuple[int, ...]:
    """The vertex ordering realizing the minimal invariant encoding.

    The vertex placed at depth k emits the column (negated adjacency counts
    to the k placed vertices in order, loops, colour). Encodings compare
    lexicographically, so at each depth only candidates achieving the minimal
    column are explored (ties all are). Negated counts keep the prefix
    connected and collapse most ties.

    Branch and bound: while a prefix equals the best complete encoding found
    so far, a node whose minimal column exceeds the best one at its depth is
    not expanded, because every encoding below it is greater. Only strictly
    worse subtrees are cut, so the search still reaches, in the same order,
    every node on the way to the first minimal encoding. The minimum, the
    returned ordering and so every canonical string are those of the
    exhaustive search.

    Each open vertex holds its column as one integer: the rank of its
    (loops, colour) tail minus its counts to the prefix as base-B digits,
    B a power of two above every multiplicity. Integer order is column order,
    and placing or unplacing a vertex updates only its neighbours."""
    counts = _adjacency_counts(g)
    colors = _refine_colors(g, counts)
    n = g.n
    if n == 0:
        return ()

    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    first_class = min(by_color.values(), key=lambda vs: (len(vs), colors[vs[0]]))

    tails = [(counts[v][v], colors[v]) for v in range(n)]
    rank = {t: i for i, t in enumerate(sorted(set(tails)))}
    tail_bits = len(rank).bit_length()
    digit_bits = max(map(max, counts)).bit_length()
    weight = [1 << (tail_bits + digit_bits * (n - 1 - i)) for i in range(n)]
    placed = 1 << (tail_bits + digit_bits * n + 1)  # above every open key
    key = [rank[t] for t in tails]
    nbrs = [[(u, c) for u, c in enumerate(row) if c and u != v]
            for v, row in enumerate(counts)]

    perm = [0] * n
    enc = [0] * n  # enc[0] is the same for every vertex of first_class
    best_enc: list[int] = []
    best_perm: tuple[int, ...] = ()

    def place(v: int, i: int, sign: int):
        """Place v at position i (sign 1) or take it back (sign -1)."""
        perm[i] = v
        key[v] += sign * placed
        w = sign * weight[i]
        for u, c in nbrs[v]:
            key[u] -= c * w

    def extend(k: int, less: bool) -> bool:
        """Search below the k placed vertices, whose encoding is below
        best_enc's prefix if `less` and equal to it otherwise. Returns whether
        best_enc was replaced, after which the prefix equals its prefix."""
        nonlocal best_enc, best_perm
        if k == n:
            if less:
                best_enc, best_perm = enc[:], tuple(perm)
            return less
        col = min(key)
        if not less:
            if col > best_enc[k]:
                return False
            less = col < best_enc[k]
        enc[k] = col
        improved = False
        for v in [u for u in range(n) if key[u] == col]:
            place(v, k, 1)
            if extend(k + 1, less):
                improved = True
                less = False
            place(v, k, -1)
        return improved

    for v0 in first_class:
        place(v0, 0, 1)
        extend(1, not best_perm)
        place(v0, 0, -1)
    return best_perm


def automorphisms(g: MultiGraph) -> list[tuple[int, ...]]:
    """All vertex permutations p (p[v] = image of v) preserving adjacency
    counts."""
    counts = _adjacency_counts(g)
    colors = _refine_colors(g, counts)
    n = g.n
    out: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n

    def extend(v: int):
        if v == n:
            out.append(tuple(image))
            return
        for w in range(n):
            if used[w] or colors[w] != colors[v] or counts[w][w] != counts[v][v]:
                continue
            if any(image[u] >= 0 and counts[v][u] != counts[w][image[u]] for u in range(v)):
                continue
            image[v] = w
            used[w] = True
            extend(v + 1)
            used[w] = False
            image[v] = -1

    extend(0)
    return out


def _h_insertions(g: MultiGraph) -> Iterator[MultiGraph]:
    """Subdivide two distinct edges (loops allowed) and join the midpoints."""
    n, m = g.n, g.m
    for e, f in combinations(range(m), 2):
        a, b = g.edges[e]
        c, d = g.edges[f]
        x, y = n, n + 1
        edges = [g.edges[i] for i in range(m) if i not in (e, f)]
        edges += [(a, x), (x, b), (c, y), (y, d), (x, y)]
        yield MultiGraph(n + 2, tuple(edges))


def _triangle_expansions(g: MultiGraph) -> Iterator[MultiGraph]:
    """Replace a (loop-free) vertex by a triangle."""
    n, m = g.n, g.m
    for v in range(n):
        slots = []
        for e in range(m):
            u, w = g.edges[e]
            if u == v and w == v:
                slots = None
                break
            if u == v:
                slots.append((e, 1))
            elif w == v:
                slots.append((e, 0))
        if slots is None or len(slots) != 3:
            continue
        tri = [v, n, n + 1]
        edges = [list(e) for e in g.edges]
        for corner, (e, other_side) in zip(tri, slots):
            edges[e][1 - other_side] = corner
        edges += [[v, n], [v, n + 1], [n, n + 1]]
        yield MultiGraph(n + 2, tuple(tuple(e) for e in edges))


def _double_insertions(g: MultiGraph) -> Iterator[MultiGraph]:
    """Subdivide one edge twice and join the midpoints (digon move; only used
    for the multigraph helper universe)."""
    n, m = g.n, g.m
    for e in range(m):
        a, b = g.edges[e]
        x, y = n, n + 1
        edges = [g.edges[i] for i in range(m) if i != e]
        edges += [(a, x), (x, y), (y, b), (x, y)]
        yield MultiGraph(n + 2, tuple(edges))


def _loop_trees(n: int) -> list[MultiGraph]:
    """Connected cubic multigraphs that are trees with a loop at each leaf;
    these are exactly the multigraphs with no cycle of non-loop edges."""
    if n == 2:
        return [MultiGraph(2, ((0, 0), (0, 1), (1, 1)))]
    out: dict[str, MultiGraph] = {}
    for parent in _loop_trees(n - 2):
        for e in range(parent.m):
            u, v = parent.edges[e]
            if u != v:
                continue
            # Leaf u: replace its loop by edges to two new loop-leaves.
            edges = [parent.edges[i] for i in range(parent.m) if i != e]
            x, y = parent.n, parent.n + 1
            edges += [(u, x), (u, y), (x, x), (y, y)]
            child = MultiGraph(parent.n + 2, tuple(edges))
            out.setdefault(canonical_form(child), child)
    return list(out.values())


@lru_cache(maxsize=None)
def _cubic_multigraphs(n: int) -> tuple[MultiGraph, ...]:
    """All connected cubic multigraphs (loops and parallels allowed) on
    n <= 8 vertices. Any such graph that is not a loop-tree has a cycle of
    non-loop edges; every cycle edge has loop-free endpoints and is not a
    bridge, so it H-reduces (possibly creating loops or parallels), and the
    inverse move is an H-insertion or a double insertion."""
    if n == 2:
        theta = MultiGraph(2, ((0, 1), (0, 1), (0, 1)))
        dumbbell = MultiGraph(2, ((0, 0), (0, 1), (1, 1)))
        return (theta, dumbbell)
    seen: dict[str, MultiGraph] = {}
    for parent in _cubic_multigraphs(n - 2):
        for child in _h_insertions(parent):
            seen.setdefault(canonical_form(child), child)
        for child in _double_insertions(parent):
            seen.setdefault(canonical_form(child), child)
    for tree in _loop_trees(n):
        seen.setdefault(canonical_form(tree), tree)
    return tuple(seen[k] for k in sorted(seen))


def _splice_diamond_chain(edges: list[tuple[int, int]], e_idx: int, count: int,
                          next_vertex: int) -> tuple[list[tuple[int, int]], int]:
    """Replace edge e_idx by a chain of `count` diamonds in series."""
    a, b = edges[e_idx]
    out = [edges[i] for i in range(len(edges)) if i != e_idx]
    prev = a
    v = next_vertex
    for _ in range(count):
        x, y, z, w = v, v + 1, v + 2, v + 3
        v += 4
        out += [(x, y), (x, z), (y, z), (x, w), (y, w)]
        out.append((prev, z))
        prev = w
    out.append((prev, b))
    return out, v


def _diamond_seeds(n: int) -> list[MultiGraph]:
    """Connected cubic simple graphs on n vertices in which neither growth
    move reverses: chains and cycles of diamond blocks hung on a small cubic
    multigraph skeleton (every skeleton edge carrying no diamond must be a
    bridge, or simplicity fails)."""
    out: dict[str, MultiGraph] = {}
    if n % 4 == 0 and n >= 8:
        k = n // 4
        edges = []
        for i in range(k):
            x, y, z, a = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
            edges += [(x, y), (x, z), (y, z), (x, a), (y, a)]
        for i in range(k):
            edges.append((4 * i + 3, (4 * (i + 1) + 2) % (4 * k)))
        neck = MultiGraph(4 * k, tuple(edges))
        out.setdefault(canonical_form(neck), neck)
    for t in range(2, min(8, n - 8) + 1, 2):
        if (n - t) % 4:
            continue
        d_total = (n - t) // 4
        for skel in _cubic_multigraphs(t):
            m = skel.m
            must_cover = sum(1 for e in range(m)
                             if skel.is_loop(e) or _is_parallel(skel, e))
            if must_cover > d_total:
                continue
            for split in _compositions(d_total, m):
                base = list(skel.edges)
                ok = True
                for e in range(m):
                    u, v = skel.edges[e]
                    if split[e] == 0 and (u == v or _is_parallel(skel, e)):
                        ok = False
                        break
                if not ok:
                    continue
                edges = base
                nxt = t
                for e in sorted(range(m), reverse=True):
                    if split[e]:
                        edges, nxt = _splice_diamond_chain(edges, e, split[e], nxt)
                g = MultiGraph(nxt, tuple(edges))
                if any(u == v for u, v in g.edges):
                    continue
                if len({tuple(sorted(e)) for e in g.edges}) != g.m:
                    continue
                out.setdefault(canonical_form(g), g)
    return list(out.values())


def _is_parallel(g: MultiGraph, e: int) -> bool:
    u, v = g.edges[e]
    return any(i != e and tuple(sorted(g.edges[i])) == tuple(sorted((u, v)))
               for i in range(g.m))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _connected_cubic(n: int) -> tuple[MultiGraph, ...]:
    """All connected cubic simple graphs on n vertices, one per isomorphism
    class, sorted by canonical form."""
    if n == 4:
        k4 = MultiGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
        return (k4,)
    seen: dict[str, MultiGraph] = {}
    for parent in _connected_cubic(n - 2):
        for child in _h_insertions(parent):
            seen.setdefault(canonical_form(child), child)
        for child in _triangle_expansions(parent):
            seen.setdefault(canonical_form(child), child)
    for seed in _diamond_seeds(n):
        seen.setdefault(canonical_form(seed), seed)
    return tuple(seen[k] for k in sorted(seen))


def generate_cubic(n: int, min_girth: int = 3,
                   three_edge_connected: bool = False) -> Iterator[MultiGraph]:
    """Stream every connected cubic simple graph on n vertices satisfying the
    filters, exactly once up to isomorphism."""
    if n % 2:
        raise PreconditionError("cubic graphs need an even vertex count")
    if n < 4:
        raise PreconditionError("generate_cubic needs n >= 4")
    check_guard(n, 16, "generate_cubic")
    for g in _connected_cubic(n):
        if betti(g) != n // 2 + 1:
            raise VerificationError(f"generated graph has Betti number {betti(g)}")
        if girth(g) < min_girth:
            continue
        if three_edge_connected and not is_three_edge_connected(g):
            continue
        yield g
