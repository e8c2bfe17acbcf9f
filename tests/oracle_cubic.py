"""Oracles for the cubic graph generator: independent pair-model oracles
(exhaustive labeled enumeration for small n and an exact labeled count by a
degree-demand dynamic program plus the exponential formula for
connectedness), and the generation loop that applies every move at every
edge and edge pair, without the orbit pruning."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from regma.cubicgen import (_blob_insertions, _diamond_insertions,
                            _h_insertions, canonical_form)
from regma.graph import MultiGraph

# Isomorphism classes of connected and of 3-edge-connected cubic simple
# graphs on n vertices (OEIS A002851 and A204198).
KNOWN_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060}
THREE_CONNECTED_COUNTS = {4: 1, 6: 2, 8: 4, 10: 14, 12: 57, 14: 341, 16: 2828}


def all_labeled_cubic_graphs(n: int):
    """Yield every simple cubic graph on labeled vertices 0..n-1 as a sorted
    edge tuple, each exactly once: the lowest unfilled vertex picks its
    remaining neighbors among higher unfilled non-neighbors."""
    residual = [3] * n
    adj = [set() for _ in range(n)]
    edges: list[tuple[int, int]] = []

    def rec():
        u = next((v for v in range(n) if residual[v]), None)
        if u is None:
            yield tuple(sorted(edges))
            return
        need = residual[u]
        cands = [v for v in range(u + 1, n) if residual[v] and v not in adj[u]]
        for chosen in combinations(cands, need):
            for v in chosen:
                residual[v] -= 1
                adj[u].add(v)
                adj[v].add(u)
                edges.append((u, v))
            residual[u] = 0
            yield from rec()
            residual[u] = need
            for v in chosen:
                residual[v] += 1
                adj[u].remove(v)
                adj[v].remove(u)
                edges.pop()

    yield from rec()


def is_connected_edges(n: int, edges) -> bool:
    seen = {0}
    stack = [0]
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


@lru_cache(maxsize=None)
def _demand_count(a1: int, a2: int, a3: int) -> int:
    """Labeled simple graphs on a1+a2+a3 vertices with the given number of
    vertices of remaining degree demand 1, 2, 3."""
    if a1 == a2 == a3 == 0:
        return 1
    if a3:
        take, rest = 3, (a1, a2, a3 - 1)
    elif a2:
        take, rest = 2, (a1, a2 - 1, a3)
    else:
        take, rest = 1, (a1 - 1, a2, a3)
    b1, b2, b3 = rest
    total = 0
    for k1 in range(min(take, b1) + 1):
        for k2 in range(min(take - k1, b2) + 1):
            k3 = take - k1 - k2
            if k3 > b3:
                continue
            ways = comb(b1, k1) * comb(b2, k2) * comb(b3, k3)
            total += ways * _demand_count(b1 - k1 + k2, b2 - k2 + k3, b3 - k3)
    return total


def labeled_cubic_count(n: int) -> int:
    """All labeled simple cubic graphs on n vertices (connected or not)."""
    return _demand_count(0, 0, n)


def labeled_connected_cubic_count(n: int) -> int:
    """Connected labeled count via the exponential formula."""
    if n % 2 or n < 4:
        return 0
    total = labeled_cubic_count(n)
    for k in range(4, n, 2):
        total -= comb(n - 1, k - 1) * labeled_connected_cubic_count(k) \
            * labeled_cubic_count(n - k)
    return total


@lru_cache(maxsize=None)
def connected_cubic(n: int) -> tuple[MultiGraph, ...]:
    """All connected cubic simple graphs on n vertices, one per isomorphism
    class, sorted by canonical form: each move at every edge or edge pair of
    every parent, each class keeping its first child."""
    if n == 4:
        k4 = MultiGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
        return (k4,)
    seen: dict[str, MultiGraph] = {}
    for step, move, size in ((2, _h_insertions, 2), (4, _diamond_insertions, 1),
                             (6, _blob_insertions, 1)):
        if n - step < 4:
            continue
        for parent in connected_cubic(n - step):
            for child in move(parent, combinations(range(parent.m), size)):
                seen.setdefault(canonical_form(child), child)
    return tuple(seen[k] for k in sorted(seen))
