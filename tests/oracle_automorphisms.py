"""Reference automorphism group: the plain backtracking that
`regma.cubicgen.automorphisms`, read off the canonical-labelling search, must
agree with. It maps vertices 0, 1, ... in turn to every unused vertex of the
same loop count whose counts to the images so far match, so it is slow but
obviously lists every automorphism, in lexicographic order. It shares no code
with `regma.cubicgen`."""

from __future__ import annotations

from oracle_canonical import adjacency_counts
from regma.graph import MultiGraph


def automorphisms(g: MultiGraph) -> list[tuple[int, ...]]:
    """All vertex permutations p (p[v] = image of v) preserving adjacency
    counts."""
    counts = adjacency_counts(g)
    n = g.n
    out: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n

    def extend(v: int):
        if v == n:
            out.append(tuple(image))
            return
        for w in range(n):
            if used[w] or counts[w][w] != counts[v][v]:
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
