"""Isomorph-free generation of connected cubic simple graphs, plus the
canonical labelling backing it. One search gives both the canonical ordering
and the automorphism group: the group is the set of maps from the canonical
ordering onto the other orderings with the same minimal encoding. The search
is keyed by adjacency counts alone, with no colour refinement: 1-WL never
splits a regular simple graph, and every graph generation labels is a simple
cubic graph.

Every connected cubic simple graph is grown from K4 by three moves, each
child deduplicated by canonical form:

- H-insertion (n-2 -> n): subdivide two distinct edges and join the
  midpoints. It is the only move that makes triangle-free graphs. On two
  edges at one vertex it expands that vertex into a triangle, so a separate
  triangle expansion would add no graph.
- Diamond insertion (n-4 -> n): replace edge a-b by a-z, a diamond, then
  w-b, where the diamond on x, y, z, w has edges xy, xz, yz, xw, yw.
  Without it the necklace of two diamonds (n = 8) is never reached.
- Blob insertion (n-6 -> n): subdivide an edge with a new vertex r, join r
  to a new vertex p, and join p to z and w of a new diamond, so that the
  blob (K4 with one edge subdivided) hangs by the bridge r-p. Without it
  two blobs joined by a bridge (n = 10) are never reached.

H-insertion alone grows the 3-edge-connected class from K4 (Tutte's edge
insertion; Brinkmann, Goedgebeur & McKay 2011). The diamond and blob moves
add exactly the graphs with a 2-edge cut or a bridge: each makes one, and
every move at a parent with one keeps it.

Each move is applied only at the least edge (diamond, blob) or least edge
pair (H-insertion), in `combinations` order, of each orbit of the parent's
automorphism group on edges (McKay 1998, "Isomorph-free exhaustive
generation"). Children made at one orbit are isomorphic, and the loop
reaches an orbit's least member before its others, so the first child of
every isomorphism class is still made: the kept graphs, their edge tuples
and their order are those of applying every move everywhere, from about a
quarter of the canonical labellings.

Completeness over the whole guarded range n <= 16 is shown by exhaustion:
the counts equal the known totals (1, 2, 5, 19, 85, 509, 4060 for
n = 4..16; 1, 2, 4, 14, 57, 341, 2828 3-edge-connected) and the canonical
forms are distinct. Tests tie the set to the labeled pair-model count.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

from .errors import PreconditionError, VerificationError, check_guard
from .graph import MultiGraph, betti, girth, is_three_edge_connected


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
    """The vertex ordering realizing the minimal invariant encoding: the
    first the labelling search reaches."""
    return _minimal_orders(g)[0]


def _minimal_orders(g: MultiGraph) -> list[tuple[int, ...]]:
    """Every vertex ordering with the minimal invariant encoding, in search
    order; the first is the canonical one.

    The vertex placed at depth k emits the column (negated adjacency counts
    to the k placed vertices in order, loops). Encodings compare
    lexicographically, so at each depth only candidates achieving the minimal
    column are explored (ties all are). Negated counts keep the prefix
    connected and collapse most ties.

    Branch and bound: while a prefix equals the best complete encoding found
    so far, a node whose minimal column exceeds the best one at its depth is
    not expanded, because every encoding below it is greater. Only strictly
    worse subtrees are cut, so the search still reaches, in the same order,
    every node on the way to the first minimal encoding. The minimum, the
    returned ordering and so every canonical string are those of the
    exhaustive search, and every leaf of the exhaustive search with the
    minimal encoding is still reached.

    Each open vertex holds its column as one integer: its loop count minus
    its counts to the prefix as base-B digits, B a power of two above every
    multiplicity. Integer order is column order, and placing or unplacing a
    vertex updates only its neighbours. Loop and neighbour counts are read
    off `g.incidence`; the order of a vertex's neighbours does not matter,
    because placing only adds to their keys."""
    n = g.n
    if n == 0:
        return [()]

    key, nbrs = [], []  # loops at v; (u, number of u-v edges) for u != v
    for v, pairs in enumerate(g.incidence):
        counts = Counter(y for _, y in pairs)
        key.append(counts.pop(v, 0))
        nbrs.append(list(counts.items()))
    tail_bits = max(key).bit_length()
    digit_bits = max(key + [c for row in nbrs for _, c in row]).bit_length()
    weight = [1 << (tail_bits + digit_bits * (n - 1 - i)) for i in range(n)]
    placed = 1 << (tail_bits + digit_bits * n + 1)  # above every open key

    perm = [0] * n
    enc = [0] * n
    best_enc: list[int] = []
    leaves: list[tuple[int, ...]] = []  # the orderings encoding as best_enc

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
        nonlocal best_enc
        if k == n:
            if less:
                best_enc = enc[:]
                leaves.clear()
            leaves.append(tuple(perm))
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

    extend(0, True)
    return leaves


def automorphisms(g: MultiGraph) -> list[tuple[int, ...]]:
    """All vertex permutations p (p[v] = image of v) preserving adjacency
    counts, in lexicographic order.

    Read off the labelling search: two orderings with the minimal encoding
    have equal counts position by position, so mapping the canonical one onto
    the other is an automorphism, and every automorphism carries the search
    tree onto itself, so the canonical ordering's image is one of them."""
    orders = _minimal_orders(g)
    pos = {v: i for i, v in enumerate(orders[0])}
    return sorted(tuple(order[pos[v]] for v in range(g.n)) for order in orders)


def _orbit_leaders(g: MultiGraph, k: int) -> Iterator[tuple[int, ...]]:
    """The least k-set of edge ids, in `combinations` order, of each orbit
    of automorphisms(g) on k-sets of edges, in that order. An automorphism
    carries an edge to the one edge on the image endpoints, so g must not
    have parallel edges."""
    index = {frozenset(e): i for i, e in enumerate(g.edges)}
    if len(index) != g.m:
        raise PreconditionError("edge orbits need a graph without parallel edges")
    images = [[index[frozenset((p[u], p[v]))] for u, v in g.edges]
              for p in automorphisms(g)]
    done: set[tuple[int, ...]] = set()
    for site in combinations(range(g.m), k):
        if site not in done:
            done.update(tuple(sorted(img[e] for e in site)) for img in images)
            yield site


def _h_insertions(g: MultiGraph,
                  pairs: Iterable[tuple[int, int]]) -> Iterator[MultiGraph]:
    """Subdivide the two distinct edges (loops allowed) of each pair of edge
    ids and join the midpoints."""
    n, m = g.n, g.m
    for e, f in pairs:
        a, b = g.edges[e]
        c, d = g.edges[f]
        x, y = n, n + 1
        edges = [g.edges[i] for i in range(m) if i not in (e, f)]
        edges += [(a, x), (x, b), (c, y), (y, d), (x, y)]
        yield MultiGraph(n + 2, tuple(edges))


def _diamond(x: int) -> list[tuple[int, int]]:
    """A diamond on x, y, z, w = x..x+3: K4 minus the edge zw, so z and w
    are its two degree-2 vertices."""
    y, z, w = x + 1, x + 2, x + 3
    return [(x, y), (x, z), (y, z), (x, w), (y, w)]


def _diamond_insertions(g: MultiGraph,
                        sites: Iterable[tuple[int]]) -> Iterator[MultiGraph]:
    """Replace the edge a-b of each 1-tuple of edge ids by a-z, a diamond,
    then w-b."""
    n, m = g.n, g.m
    for (e,) in sites:
        a, b = g.edges[e]
        edges = [g.edges[i] for i in range(m) if i != e]
        edges += _diamond(n) + [(a, n + 2), (n + 3, b)]
        yield MultiGraph(n + 4, tuple(edges))


def _blob_insertions(g: MultiGraph,
                     sites: Iterable[tuple[int]]) -> Iterator[MultiGraph]:
    """Subdivide the edge a-b of each 1-tuple of edge ids with a new vertex
    r, join r to a new vertex p, and join p to z and w of a new diamond."""
    n, m = g.n, g.m
    r, p, x = n, n + 1, n + 2
    for (e,) in sites:
        a, b = g.edges[e]
        edges = [g.edges[i] for i in range(m) if i != e]
        edges += [(a, r), (r, b), (r, p), (p, x + 2), (p, x + 3)] + _diamond(x)
        yield MultiGraph(n + 6, tuple(edges))


# (vertices added, move, edges per site); 3-edge-connected uses the first
_MOVES = ((2, _h_insertions, 2), (4, _diamond_insertions, 1),
          (6, _blob_insertions, 1))


@lru_cache(maxsize=None)
def _cubic(n: int, three_connected: bool) -> tuple[MultiGraph, ...]:
    """Connected cubic simple graphs on n vertices (3-edge-connected ones, by
    H-insertion alone, if three_connected), one per class, by canonical form."""
    if n == 4:
        k4 = MultiGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
        return (k4,)
    seen: dict[str, MultiGraph] = {}
    for step, move, size in _MOVES[:1] if three_connected else _MOVES:
        if n - step < 4:
            continue
        for parent in _cubic(n - step, three_connected):
            for child in move(parent, _orbit_leaders(parent, size)):
                seen.setdefault(canonical_form(child), child)
    return tuple(seen[k] for k in sorted(seen))


def generate_cubic(n: int, min_girth: int = 3,
                   three_edge_connected: bool = False) -> Iterator[MultiGraph]:
    """Stream every connected cubic simple graph on n vertices satisfying the
    filters, exactly once up to isomorphism."""
    if n % 2 or n < 4:
        raise PreconditionError("generate_cubic needs an even n >= 4")
    check_guard(n, 16, "generate_cubic")
    for g in _cubic(n, three_edge_connected):
        if betti(g) != n // 2 + 1:
            raise VerificationError(f"generated graph has Betti number {betti(g)}")
        if three_edge_connected and not is_three_edge_connected(g):
            raise VerificationError("generated graph is not 3-edge-connected")
        # a simple graph has girth at least 3
        if min_girth > 3 and girth(g) < min_girth:
            continue
        yield g
