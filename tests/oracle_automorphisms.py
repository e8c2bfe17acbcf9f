"""Reference automorphism group: the plain backtracking that
`regma.cubicgen.automorphisms`, read off the canonical-labelling search, must
agree with. It maps vertices 0, 1, ... in turn to every unused vertex of the
same refined colour and loop count whose counts to the images so far match,
so it is slow but obviously lists every automorphism, in lexicographic
order."""

from __future__ import annotations

from regma.cubicgen import _adjacency_counts, _refine_colors
from regma.graph import MultiGraph


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
