"""Reference cycle searches. `enumerate_cycles` lists every simple cycle by
brute force, for tests that take a minimum or a count over all cycles. The
Fraction `min_cycles_per_edge` is what `regma.graph.min_cycles_per_edge`
must agree with label for label. It adds the weights as Fractions, so it
needs no argument that scaling the weights to integers keeps every order
and every tie."""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Sequence

from regma.graph import Cycle, MultiGraph, check_weights


def enumerate_cycles(g: MultiGraph) -> list[Cycle]:
    """All simple cycles, each exactly once. Cycles are rooted at their
    minimum edge id and extended by DFS over larger ids; the count grows
    exponentially, so keep g small."""
    out: list[Cycle] = []
    for e0, (u0, v0) in enumerate(g.edges):
        if u0 == v0:
            out.append(Cycle(frozenset([e0])))
            continue
        # Simple paths v0 -> u0 through edges with id > e0.
        stack: list[tuple[int, frozenset[int], frozenset[int]]] = [
            (v0, frozenset([e0]), frozenset([v0]))
        ]
        while stack:
            x, used, verts = stack.pop()
            for e, y in g.incidence[x]:
                if e <= e0 or e in used or y == x:
                    continue
                if y == u0:
                    out.append(Cycle(used | {e}))
                elif y not in verts:
                    stack.append((y, used | {e}, verts | {y}))
    dedup = {c.edge_ids for c in out}
    return sorted((Cycle(ids) for ids in dedup), key=lambda c: sorted(c.edge_ids))


def min_cycles_per_edge(g: MultiGraph, w: Sequence[Fraction]
                        ) -> dict[int, tuple[Fraction, tuple[int, ...]]]:
    """For each edge on a cycle, a minimum-weight cycle through it as
    (weight, sorted edge ids): a loop alone, else the edge e=(u,v) plus the
    u-v path avoiding e found by `_lex_dijkstra`."""
    w = check_weights(g, w)
    out: dict[int, tuple[Fraction, tuple[int, ...]]] = {}
    for e, (u, v) in enumerate(g.edges):
        if u == v:
            out[e] = (w[e], (e,))
            continue
        label = _lex_dijkstra(g, w, u, v, avoid_edge=e)
        if label is not None:
            dist, path = label
            out[e] = (dist + w[e], tuple(sorted(path + (e,))))
    return out


def _lex_dijkstra(g: MultiGraph, w: Sequence[Fraction], src: int, dst: int,
                  avoid_edge: int):
    """A minimum-weight src-dst path avoiding one edge, as the label
    (weight, sorted edge ids). Dijkstra on the weight is exact for
    nonnegative weights; ties are broken by the sorted ids, deterministically
    but not always to the least set, because appending a zero-weight edge can
    make a label smaller: a path (12,) that loses to (8,) at dst would win
    as (3, 12) after its zero-weight edge 3, but dst is already settled."""
    best: dict[int, tuple[Fraction, tuple[int, ...]]] = {src: (Fraction(0), ())}
    heap: list[tuple[Fraction, tuple[int, ...], int]] = [(Fraction(0), (), src)]
    done: set[int] = set()
    while heap:
        dist, path, x = heapq.heappop(heap)
        if x in done or best.get(x) != (dist, path):
            continue
        done.add(x)
        if x == dst:
            return (dist, path)
        for e, y in g.incidence[x]:
            if e == avoid_edge or y in done:
                continue
            nd = dist + w[e]
            npath = tuple(sorted(path + (e,)))
            cur = best.get(y)
            if cur is None or (nd, npath) < cur:
                best[y] = (nd, npath)
                heapq.heappush(heap, (nd, npath, y))
    return None
