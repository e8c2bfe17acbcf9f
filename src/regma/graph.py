"""Finite multigraphs (loops and parallel edges allowed) with the cycle,
connectivity, and reduction machinery used by the systole computations.

Edges carry stable integer ids 0..m-1 given by their position in the edge
list. Every traversal reads one adjacency view, `MultiGraph.incidence`:
each vertex's (edge id, other end) pairs, a loop once with the vertex as
its other end. The cycle searches take nonnegative integer weights, one per
edge id, and return integers; Fraction weights are checked and scaled once
where they enter (`optimize.systole_weighted`, `optimize.verify_maxmin`),
and a positive scale keeps every order and tie.

Minimum cycles come from one search, `min_cycles_per_edge`: a minimum-weight
cycle through each edge, by a Dijkstra whose labels carry the sorted edge
ids; `min_weight_cycle` takes the least of them. The certificate checker
asks `min_cycle_value` instead, a value-only Dijkstra that shares no code
with that search; `girth` is its value at unit weights.

The spanning tree enters through one table, `fundamental_cycles`. Edge cuts
below three edges are read off it (Pritchard & Thurimella 2011): an edge is
a bridge iff it lies on no fundamental cycle, and two edges of a bridgeless
graph form a cut iff they lie on exactly the same fundamental cycles. The
cographic matroid and the sign gauge of the embedding search use the same
table.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Sequence

from .errors import (AcyclicGraphError, DisconnectedGraphError, InputError,
                     PreconditionError, VerificationError)

INFINITY = float("inf")


@dataclass(frozen=True)
class MultiGraph:
    """Vertices 0..n-1; edges is an ordered tuple of unordered endpoint
    pairs, u == v allowed (loop)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple((int(u), int(v)) for u, v in self.edges)
        )
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise PreconditionError(f"edge endpoint out of range: ({u},{v})")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """incidence[v] = the (edge id, other end) pairs at v, in edge-id
        order; a loop appears once, with v as its other end."""
        inc = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append((e, v))
            if v != u:
                inc[v].append((e, u))
        return tuple(tuple(x) for x in inc)

    def degree(self, v: int) -> int:
        """Loops contribute 2."""
        return sum(2 if y == v else 1 for _, y in self.incidence[v])

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            stack = [s]
            while stack:
                x = stack.pop()
                for _, y in self.incidence[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        stack.append(y)
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def format(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines)

    @staticmethod
    def parse(text: str) -> "MultiGraph":
        """Inverse of format; malformed text raises InputError."""
        rows = [ln.split() for ln in text.splitlines() if ln.strip()]
        try:
            n, m = map(int, rows[0] if rows else ())
            edges = tuple((int(u), int(v)) for u, v in rows[1:])
        except ValueError as exc:
            raise InputError(f"malformed graph file: {exc}") from None
        if n < 0 or len(edges) != m:
            raise InputError(f"malformed graph file: header '{n} {m}' with "
                             f"{len(edges)} edge lines")
        try:
            return MultiGraph(n, edges)
        except PreconditionError as exc:
            raise InputError(f"malformed graph file: {exc}") from None


EdgeWeights = tuple[Fraction, ...]


def check_weights(g: MultiGraph, w: Sequence[Fraction]) -> EdgeWeights:
    if len(w) != g.m:
        raise PreconditionError(f"need {g.m} weights, got {len(w)}")
    ww = tuple(Fraction(x) for x in w)
    if any(x < 0 for x in ww):
        raise PreconditionError("edge weights must be nonnegative")
    return ww


@dataclass(frozen=True)
class Cycle:
    """A simple cycle given by its edge-id set: the selected edges form a
    connected subgraph in which every vertex has degree exactly 2 (a loop
    counting 2 at its vertex)."""

    edge_ids: frozenset[int]

    def __len__(self) -> int:
        return len(self.edge_ids)

    @staticmethod
    def from_edges(g: MultiGraph, ids) -> "Cycle":
        ids = frozenset(int(e) for e in ids)
        if not ids:
            raise PreconditionError("a cycle is nonempty")
        if not all(0 <= e < g.m for e in ids):
            raise PreconditionError(f"cycle edge ids must lie below {g.m}")
        deg: dict[int, int] = {}
        for e in ids:
            u, v = g.edges[e]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if any(d != 2 for d in deg.values()):
            raise PreconditionError("cycle edges must induce degree 2 everywhere")
        verts = set(deg)
        start = next(iter(verts))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for e, y in g.incidence[x]:
                if e in ids and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != verts:
            raise PreconditionError("cycle edges must induce a connected subgraph")
        return Cycle(ids)


def betti(g: MultiGraph) -> int:
    """First Betti number m - n + #components."""
    return g.m - g.n + len(g.components())


def girth(g: MultiGraph) -> int | float:
    """Length of a shortest simple cycle; loops count 1, parallel pairs 2;
    infinity for forests."""
    return min_cycle_value(g, [1] * g.m) if betti(g) else INFINITY


def _bfs_tree(g: MultiGraph) -> dict[int, tuple[int, int]]:
    """Breadth-first spanning tree of the component of vertex 0, scanning
    each incidence list in order: parent[y] = (x, e) for every reached
    vertex y other than 0, where tree edge e joins y to x."""
    parent: dict[int, tuple[int, int]] = {}
    queue = [0] if g.n else []
    for x in queue:
        for e, y in g.incidence[x]:
            if y != 0 and y not in parent:
                parent[y] = (x, e)
                queue.append(y)
    return parent


def fundamental_cycles(g: MultiGraph) -> list[tuple[tuple[int, int], ...]]:
    """One cycle per edge outside the breadth-first tree of `_bfs_tree`, in
    edge-id order, as (edge, sign) pairs: the non-tree edge f = (u, v) first
    at +1, then the tree path from u to v, each edge at +1 where the path
    runs from its first end to its second and -1 otherwise. A loop's cycle
    is itself alone. Negating the tree edges orients the cycle along f."""
    parent = _bfs_tree(g)
    tree = {e for _, e in parent.values()}

    def root_path(v: int) -> list[tuple[int, int]]:
        path = []
        while v in parent:
            x, e = parent[v]
            path.append((e, 1 if g.edges[e][1] == v else -1))
            v = x
        path.reverse()
        return path

    out = []
    for f in range(g.m):
        if f in tree:
            continue
        u, v = g.edges[f]
        cycle = [(f, 1)]
        if u != v:
            pu, pv = root_path(u), root_path(v)
            i = 0
            while i < len(pu) and i < len(pv) and pu[i] == pv[i]:
                i += 1
            cycle += [(e, -s) for e, s in reversed(pu[i:])]
            cycle += pv[i:]
        out.append(tuple(cycle))
    return out


def edge_cut_below(g: MultiGraph) -> tuple[int, ...] | None:
    """Smallest disconnecting edge set of size below three if one exists,
    else None; ties broken lexicographically. Requires g connected. The cut
    space is the orthogonal complement of the cycle space, so with mask[e]
    the set of fundamental cycles through e, the bridges are the edges of
    mask 0 and, when there are none, the 2-edge cuts are the pairs of equal
    masks."""
    if not g.is_connected():
        raise DisconnectedGraphError("edge_cut_below requires a connected graph")
    if g.n <= 1:
        return None
    mask = [0] * g.m
    for i, cycle in enumerate(fundamental_cycles(g)):
        for e, _ in cycle:
            mask[e] |= 1 << i
    if 0 in mask:
        return (mask.index(0),)
    classes: dict[int, list[int]] = {}
    for e, x in enumerate(mask):
        classes.setdefault(x, []).append(e)
    return min(((c[0], c[1]) for c in classes.values() if len(c) > 1), default=None)


def is_three_edge_connected(g: MultiGraph) -> bool:
    """No cutset of size <= 2 ("3-connected" throughout this package)."""
    return g.is_connected() and edge_cut_below(g) is None


def min_weight_cycle(g: MultiGraph, iw: Sequence[int]) -> tuple[Cycle, int]:
    """Minimum-weight simple cycle under the nonnegative integer edge
    weights iw: the least (weight, sorted edge ids) of the per-edge cycles
    of `min_cycles_per_edge`. Every cycle weighs at least the per-edge value
    of each of its edges, so the weight is the minimum; ties are broken as
    there."""
    if len(iw) != g.m or any(x < 0 for x in iw):
        raise PreconditionError(f"need {g.m} nonnegative weights")
    per_edge = min_cycles_per_edge(g, iw)
    if not per_edge:
        raise AcyclicGraphError("graph has no cycle")
    value, ids = min(per_edge.values())
    return Cycle(frozenset(ids)), value


def min_cycles_per_edge(g: MultiGraph, iw: Sequence[int]
                        ) -> dict[int, tuple[int, tuple[int, ...]]]:
    """For each edge on a cycle, a minimum-weight cycle through it under the
    nonnegative integer edge weights iw, as (weight, sorted edge ids): a
    loop alone, else the edge e=(u,v) plus the u-v path avoiding e found by
    `_lex_dijkstra` over `g.incidence`."""
    out: dict[int, tuple[int, tuple[int, ...]]] = {}
    for e, (u, v) in enumerate(g.edges):
        if u == v:
            out[e] = (iw[e], (e,))
            continue
        label = _lex_dijkstra(g.incidence, iw, u, v, avoid_edge=e)
        if label is not None:
            dist, path = label
            out[e] = (dist + iw[e], tuple(sorted(path + (e,))))
    return out


def _lex_dijkstra(adj: Sequence[Sequence[tuple[int, int]]], iw: Sequence[int],
                  src: int, dst: int, avoid_edge: int):
    """A minimum-weight src-dst path avoiding one edge, as the label
    (weight, sorted edge ids), over adj[x] = [(edge, other end)] as in
    `MultiGraph.incidence`. A loop's other end is x itself, settled before
    its pairs are read, so loops are skipped as done. Dijkstra on the weight
    is exact for nonnegative weights; ties are broken by the sorted ids,
    deterministically but not always to the least set, because appending a
    zero-weight edge can make a label smaller: a path (12,) that loses to
    (8,) at dst would win as (3, 12) after its zero-weight edge 3, but dst is
    already settled."""
    best: list[tuple[int, tuple[int, ...]] | None] = [None] * len(adj)
    best[src] = (0, ())
    heap: list[tuple[int, tuple[int, ...], int]] = [(0, (), src)]
    done = [False] * len(adj)
    while heap:
        dist, path, x = heapq.heappop(heap)
        if done[x]:
            continue
        done[x] = True
        if x == dst:
            return (dist, path)
        for e, y in adj[x]:
            if e == avoid_edge or done[y]:
                continue
            nd = dist + iw[e]
            cur = best[y]
            if cur is not None and nd > cur[0]:
                continue
            npath = tuple(sorted(path + (e,)))
            if cur is None or (nd, npath) < cur:
                best[y] = (nd, npath)
                heapq.heappush(heap, (nd, npath, y))
    return None


def min_cycle_value(g: MultiGraph, iw: Sequence[int]) -> int:
    """The least cycle weight alone under the nonnegative integer edge
    weights iw: over the edges, a loop's weight or an edge (u, v) plus the
    u-v distance avoiding it. A plain Dijkstra with no path labels and no
    tie-break; it shares no code with `min_cycles_per_edge`, so a checker
    built on it does not vouch for the solver's oracle with that same
    oracle."""
    best = None
    for e, (u, v) in enumerate(g.edges):
        d = 0 if u == v else _dijkstra_dist(g, iw, u, v, avoid_edge=e)
        if d is not None and (best is None or d + iw[e] < best):
            best = d + iw[e]
    if best is None:
        raise AcyclicGraphError("graph has no cycle")
    return best


def _dijkstra_dist(g: MultiGraph, iw: Sequence[int], src: int, dst: int,
                   avoid_edge: int) -> int | None:
    """Weighted src-dst distance avoiding one edge; None if unreachable."""
    dist = {src: 0}
    heap = [(0, src)]
    done: set[int] = set()
    while heap:
        dx, x = heapq.heappop(heap)
        if x == dst:
            return dx
        if x in done:
            continue
        done.add(x)
        for e, y in g.incidence[x]:
            if e == avoid_edge or y in done:
                continue
            nd = dx + iw[e]
            if y not in dist or nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return None


def split_vertex(g: MultiGraph, v: int) -> MultiGraph:
    """Split a degree >= 4 vertex of a 3-edge-connected graph into two
    adjacent vertices, preserving 3-edge-connectivity and the Betti number.
    The partition is found by searching pairs of edge-ends at v, which
    suffices by the splitting lemma for 3-connected graphs."""
    if g.degree(v) < 4:
        raise PreconditionError(f"vertex {v} has degree < 4")
    if not is_three_edge_connected(g):
        raise PreconditionError("split_vertex requires a 3-edge-connected graph")
    ends = [(e, side) for e, _ in g.incidence[v] for side in (0, 1)
            if g.edges[e][side] == v]
    for pair in combinations(range(len(ends)), 2):
        cand = _apply_split(g, v, [ends[i] for i in pair])
        if is_three_edge_connected(cand):
            return cand
    raise PreconditionError("no 3-edge-connected splitting found")


def _apply_split(g: MultiGraph, v: int, moved: list[tuple[int, int]]) -> MultiGraph:
    w = g.n
    new_edges = [list(e) for e in g.edges]
    for e, side in moved:
        new_edges[e][side] = w
    new_edges.append([v, w])
    return MultiGraph(g.n + 1, tuple(tuple(e) for e in new_edges))


@dataclass(frozen=True)
class ReductionStep:
    """One systole-monotone move from the reduction to cubic graphs: the kind
    is one of join_components / contract_bridge / contract_two_cut /
    split_vertex, and data records the edge or vertex acted on."""

    kind: str
    data: tuple
    result: MultiGraph


def _contract(g: MultiGraph, e: int) -> MultiGraph:
    """Contract edge e (must not be a loop); remaining ids shift down by one
    but keep their relative order."""
    u, v = g.edges[e]
    if u == v:
        raise PreconditionError("cannot contract a loop")
    a, b = min(u, v), max(u, v)

    def remap(x: int) -> int:
        if x == b:
            return a
        return x - 1 if x > b else x

    edges = [(remap(p), remap(q)) for i, (p, q) in enumerate(g.edges) if i != e]
    return MultiGraph(g.n - 1, tuple(edges))


def reduce_to_cubic(g: MultiGraph) -> tuple[MultiGraph, tuple[ReductionStep, ...]]:
    """Reduce to a 3-edge-connected cubic graph of the same Betti number by
    systole-nondecreasing moves; the trace certifies sys(input) <= sys(output)
    step by step."""
    if betti(g) < 2:
        raise PreconditionError("reduction requires Betti number >= 2")
    trace: list[ReductionStep] = []
    cur = g
    while True:
        comps = cur.components()
        if len(comps) > 1:
            u, v = comps[0][0], comps[1][0]
            cur = MultiGraph(cur.n, cur.edges + ((u, v),))
            trace.append(ReductionStep("join_components", (u, v), cur))
            continue
        cut = edge_cut_below(cur)
        if cut is not None:
            cur = _contract(cur, cut[0])
            kind = "contract_bridge" if len(cut) == 1 else "contract_two_cut"
            trace.append(ReductionStep(kind, cut, cur))
            continue
        high = next((v for v in range(cur.n) if cur.degree(v) >= 4), None)
        if high is not None:
            cur = split_vertex(cur, high)
            trace.append(ReductionStep("split_vertex", (high,), cur))
            continue
        break
    if not (all(cur.degree(v) == 3 for v in range(cur.n))
            and betti(cur) == betti(g) and is_three_edge_connected(cur)):
        raise VerificationError("reduction did not reach a 3-edge-connected "
                                "cubic graph of the same Betti number")
    return cur, tuple(trace)
