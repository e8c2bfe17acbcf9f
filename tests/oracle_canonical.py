"""Reference canonical labelling: the exhaustive search that the pruned
`regma.cubicgen.canonical_order` must agree with. It visits every node whose
column is minimal at its depth and never compares a partial encoding with the
best complete one, so it is slow but obviously finds the minimal encoding."""

from __future__ import annotations

from regma.cubicgen import _adjacency_counts, _refine_colors
from regma.graph import MultiGraph


def canonical_order(g: MultiGraph) -> tuple[int, ...]:
    """The vertex ordering realizing the minimal invariant encoding.

    Columns emitted per labeled vertex are compared lexicographically, so at
    each depth only candidates achieving the minimal column are explored
    (ties all are). Adjacency counts to the prefix enter negated, which keeps
    the prefix connected and collapses most ties."""
    counts = _adjacency_counts(g)
    colors = _refine_colors(g, counts)
    n = g.n
    if n == 0:
        return ()

    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    first_class = min(by_color.values(), key=lambda vs: (len(vs), colors[vs[0]]))

    best_enc: list[tuple[int, ...]] | None = None
    best_perm: tuple[int, ...] | None = None

    def extend(perm: list[int], used: set[int], enc: list[tuple[int, ...]]):
        nonlocal best_enc, best_perm
        k = len(perm)
        if k == n:
            if best_enc is None or enc < best_enc:
                best_enc = list(enc)
                best_perm = tuple(perm)
            return
        scored = sorted(
            (tuple(-counts[v][p] for p in perm) + (counts[v][v], colors[v]), v)
            for v in range(n) if v not in used
        )
        min_col = scored[0][0]
        for col, v in scored:
            if col != min_col:
                break
            enc.append(col)
            perm.append(v)
            used.add(v)
            extend(perm, used, enc)
            used.remove(v)
            perm.pop()
            enc.pop()

    for v0 in first_class:
        extend([v0], {v0}, [(colors[v0], counts[v0][v0])])
    assert best_perm is not None
    return best_perm


def canonical_form(g: MultiGraph) -> str:
    """The string `regma.cubicgen.canonical_form` builds, from the reference
    ordering above."""
    pos = {v: i for i, v in enumerate(canonical_order(g))}
    edges = sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges)
    body = ";".join(f"{u},{v}" for u, v in edges)
    return f"{g.n}|{body}"
