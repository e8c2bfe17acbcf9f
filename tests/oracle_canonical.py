"""Reference canonical labelling: the exhaustive search that the pruned
`regma.cubicgen.canonical_order` must agree with. It visits every node whose
column is minimal at its depth and never compares a partial encoding with the
best complete one, so it is slow but obviously finds the minimal encoding.
It shares no code with `regma.cubicgen`."""

from __future__ import annotations

from regma.graph import MultiGraph


def adjacency_counts(g: MultiGraph) -> list[list[int]]:
    """counts[u][v] = number of u-v edges; counts[v][v] = loops at v."""
    counts = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        counts[u][v] += 1
        if u != v:
            counts[v][u] += 1
    return counts


def canonical_order(g: MultiGraph) -> tuple[int, ...]:
    """The vertex ordering realizing the minimal invariant encoding.

    The vertex placed at depth k emits the column (negated adjacency counts
    to the k placed vertices in order, loops). Columns are compared
    lexicographically, so at each depth, the first included, only candidates
    achieving the minimal column are explored (ties all are). Adjacency
    counts to the prefix enter negated, which keeps the prefix connected and
    collapses most ties."""
    counts = adjacency_counts(g)
    n = g.n
    best_enc: list[tuple[int, ...]] | None = None
    best_perm: tuple[int, ...] = ()

    def extend(perm: list[int], used: set[int], enc: list[tuple[int, ...]]):
        nonlocal best_enc, best_perm
        k = len(perm)
        if k == n:
            if best_enc is None or enc < best_enc:
                best_enc = list(enc)
                best_perm = tuple(perm)
            return
        scored = sorted(
            (tuple(-counts[v][p] for p in perm) + (counts[v][v],), v)
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

    extend([], set(), [])
    return best_perm


def canonical_form(g: MultiGraph) -> str:
    """The string `regma.cubicgen.canonical_form` builds, from the reference
    ordering above."""
    pos = {v: i for i, v in enumerate(canonical_order(g))}
    edges = sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges)
    body = ";".join(f"{u},{v}" for u, v in edges)
    return f"{g.n}|{body}"
