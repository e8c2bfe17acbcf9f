"""Reference minimum-cycle search: the Fraction `min_cycles_per_edge` that
`regma.graph.min_cycles_per_edge` must agree with label for label. It adds
the weights as Fractions and looks up each edge's ends in the graph on every
relaxation, so it needs no argument that scaling the weights to integers
keeps every order and every tie."""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Sequence

from regma.graph import MultiGraph, check_weights


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
        for e in g.incidence[x]:
            if e == avoid_edge or g.is_loop(e):
                continue
            y = g.other_end(e, x)
            if y in done:
                continue
            nd = dist + w[e]
            npath = tuple(sorted(path + (e,)))
            cur = best.get(y)
            if cur is None or (nd, npath) < cur:
                best[y] = (nd, npath)
                heapq.heappush(heap, (nd, npath, y))
    return None
