"""Reference matroid searches by brute force: `circuits` lists the minimal
supports of all nonzero F2 kernel vectors, and `isomorphic` looks for a
ground-set bijection that carries circuits onto circuits. Tests compare the
library's sums, duals, simplifications and cogirths against them. Both
enumerate exponentially many sets, so keep the matroids small."""

from __future__ import annotations

from regma.errors import PreconditionError
from regma.exact import f2_kernel
from regma.matroid import BinaryMatroid


def circuits(m: BinaryMatroid) -> list[tuple[int, ...]]:
    """Minimal dependent subsets = minimal supports of nonzero F2 kernel
    vectors of the representation."""
    kernel = f2_kernel(m.rep.bits, m.size)
    vecs = [0]
    for b in kernel:
        vecs += [v ^ b for v in vecs]
    vecs = [v for v in vecs if v]
    vecs.sort(key=int.bit_count)
    minimal: list[int] = []
    for v in vecs:
        if not any(u & v == u for u in minimal):
            minimal.append(v)
    out = [tuple(_mask_bits(v)) for v in minimal]
    return sorted(out)


def _mask_bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def isomorphic(m1: BinaryMatroid, m2: BinaryMatroid) -> dict[int, int] | None:
    """Ground-set bijection carrying independent sets onto independent sets,
    or None. Both matroids must be simple."""
    for m in (m1, m2):
        if any(c == 0 for c in m.columns) or len(set(m.columns)) != m.size:
            raise PreconditionError("isomorphic() requires simple matroids")
    if m1.size != m2.size or m1.rank != m2.rank:
        return None
    c1 = [frozenset(c) for c in circuits(m1)]
    c2 = [frozenset(c) for c in circuits(m2)]
    if sorted(len(c) for c in c1) != sorted(len(c) for c in c2):
        return None
    by_elem1 = _circuit_profile(c1, m1.size)
    by_elem2 = _circuit_profile(c2, m2.size)
    if sorted(by_elem1) != sorted(by_elem2):
        return None
    set2 = set(c2)
    n = m1.size
    image: list[int] = [-1] * n
    used = [False] * n

    def ok_so_far(v: int) -> bool:
        for c in c1:
            if all(x <= v for x in c):
                if frozenset(image[x] for x in c) not in set2:
                    return False
        return True

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or by_elem1[v] != by_elem2[w]:
                continue
            image[v] = w
            used[w] = True
            if ok_so_far(v) and extend(v + 1):
                return True
            used[w] = False
            image[v] = -1
        return False

    if extend(0):
        return {v: image[v] for v in range(n)}
    return None


def _circuit_profile(cs: list[frozenset[int]], n: int) -> list[tuple]:
    prof: list[list[int]] = [[] for _ in range(n)]
    for c in cs:
        for x in c:
            prof[x].append(len(c))
    return [tuple(sorted(p)) for p in prof]
