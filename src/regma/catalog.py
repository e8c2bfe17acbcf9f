"""Named-graph catalog: the extremal graphs of the systole tables and the
six cubic projective-plane obstructions, with cheap structural self-checks
on construction (counts, regularity, girth, Betti number). The expensive
validations (non-embeddability, automorphism counts, named-cycle embedding
certificates) live in the test suite.

F13 is the cubic girth-5 graph on a 9-cycle with three tripod vertices
attached at the residue classes mod 3; F14 is the cubic girth-5 graph on an
8-cycle with two hub pairs joined by chords. F11 is two copies of K33 minus
an edge joined by a 2-edge matching across the degree-2 vertices. F12 is
the remaining 3-edge-connected cubic non-projective-planar graph on 12
vertices (girth 4, automorphism group of order 16); its edge list was fixed
by exhausting the 85 cubic graphs on 12 vertices. G1 is two disjoint K23's
with the degree-2 vertices matched by three edges.
"""

from __future__ import annotations

import re

from .errors import PreconditionError, VerificationError
from .graph import Cycle, MultiGraph, betti, girth


def _complete(n: int) -> MultiGraph:
    return MultiGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def _theta() -> MultiGraph:
    return MultiGraph(2, ((0, 1), (0, 1), (0, 1)))


def _k33() -> MultiGraph:
    return MultiGraph(6, tuple((i, j) for i in range(3) for j in range(3, 6)))


def _moebius_ladder(r: int) -> MultiGraph:
    if r < 2:
        raise PreconditionError("moebius ladder needs at least 2 rungs")
    n = 2 * r
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + r) for i in range(r)]
    return MultiGraph(n, tuple(edges))


def _g53() -> MultiGraph:
    # K23 on {0,1 | 2,3,4} plus a triangle {5,6,7}, matched 2-5, 3-6, 4-7.
    edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
             (5, 6), (6, 7), (5, 7), (2, 5), (3, 6), (4, 7)]
    return MultiGraph(8, tuple(edges))


def _generalized_petersen(n: int, k: int) -> MultiGraph:
    """GP(n, k): the outer n-cycle, then the inner edges i -> i + k, then
    the spokes."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return MultiGraph(2 * n, tuple(edges))


def _heawood() -> MultiGraph:
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(14) if i % 2 == 0]
    return MultiGraph(14, tuple(edges))


def _g1() -> MultiGraph:
    # Two K23's on {0,1 | 2,3,4} and {5,6 | 7,8,9}, matched 2-7, 3-8, 4-9.
    edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
             (5, 7), (5, 8), (5, 9), (6, 7), (6, 8), (6, 9),
             (2, 7), (3, 8), (4, 9)]
    return MultiGraph(10, tuple(edges))


def _f11() -> MultiGraph:
    # K33 minus (0,3) on {0,1,2 | 3,4,5}; second copy shifted by 6;
    # cross edges join the degree-2 vertices.
    half = [(i, j) for i in range(3) for j in range(3, 6) if (i, j) != (0, 3)]
    edges = half + [(u + 6, v + 6) for u, v in half] + [(0, 6), (3, 9)]
    return MultiGraph(12, tuple(edges))


def _f13() -> MultiGraph:
    # 9-cycle 0..8; tripod vertices 9, 10, 11 attached at residues mod 3.
    edges = [(i, (i + 1) % 9) for i in range(9)]
    edges += [(9, 0), (9, 3), (9, 6), (10, 1), (10, 4), (10, 7),
              (11, 2), (11, 5), (11, 8)]
    return MultiGraph(12, tuple(edges))


def _f14() -> MultiGraph:
    # 8-cycle 0..7; hubs 8, 9 joined by a chord and attached at 0,4 / 2,6;
    # hubs 10, 11 joined by a chord and attached at 1,5 / 3,7.
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(8, 0), (8, 4), (9, 2), (9, 6), (8, 9),
              (10, 1), (10, 5), (11, 3), (11, 7), (10, 11)]
    return MultiGraph(12, tuple(edges))


F12_EDGES: tuple[tuple[int, int], ...] = (
    (1, 2), (0, 3), (1, 3), (5, 6), (4, 7), (5, 7), (3, 6), (7, 2), (0, 8),
    (8, 1), (4, 9), (9, 6), (8, 9), (0, 10), (10, 2), (4, 11), (11, 5),
    (10, 11),
)


def _f12() -> MultiGraph:
    return MultiGraph(12, F12_EDGES)


def _check(g: MultiGraph, n: int, m: int, want_girth, want_betti: int,
           cubic: bool = True) -> MultiGraph:
    if g.n != n or g.m != m:
        raise VerificationError("catalog edge list has wrong size")
    if cubic and any(g.degree(v) != 3 for v in range(g.n)):
        raise VerificationError("catalog graph is not cubic")
    if girth(g) != want_girth:
        raise VerificationError(f"girth {girth(g)} != {want_girth}")
    if betti(g) != want_betti:
        raise VerificationError(f"Betti number {betti(g)} != {want_betti}")
    if not g.is_connected():
        raise VerificationError("catalog graph is disconnected")
    return g


_BUILDERS = {
    "theta": lambda: _check(_theta(), 2, 3, 2, 2),
    "k33": lambda: _check(_k33(), 6, 9, 4, 4),
    "g53": lambda: _check(_g53(), 8, 12, 3, 5),
    "g54": lambda: _check(_moebius_ladder(4), 8, 12, 4, 5),
    "petersen": lambda: _check(_generalized_petersen(5, 2), 10, 15, 5, 6),
    "heawood": lambda: _check(_heawood(), 14, 21, 6, 8),
    "g1": lambda: _check(_g1(), 10, 15, 4, 6),
    "f11": lambda: _check(_f11(), 12, 18, 4, 7),
    "f12": lambda: _check(_f12(), 12, 18, 4, 7),
    "f13": lambda: _check(_f13(), 12, 18, 5, 7),
    "f14": lambda: _check(_f14(), 12, 18, 5, 7),
    "moebius_kantor": lambda: _check(_generalized_petersen(8, 3), 16, 24, 6, 9),
}


def catalog(name: str) -> MultiGraph:
    """Fixed edge list for a named graph; names: theta, k<N>,
    moebius_ladder<R>, k33, g53, g54, petersen, heawood, g1, f11, f12, f13,
    f14, moebius_kantor."""
    key = name.strip().lower()
    if key in _BUILDERS:
        return _BUILDERS[key]()
    m = re.fullmatch(r"k(\d+)", key)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise PreconditionError("k<n> needs n >= 2")
        return _complete(n)
    m = re.fullmatch(r"moebius_ladder(\d+)", key)
    if m:
        return _moebius_ladder(int(m.group(1)))
    raise PreconditionError(f"unknown catalog name {name!r}")


# Orbit representatives under Aut(F13)/Aut(F14) admitting chi = 0 embeddings
# with the cycle pinned as a face (f14_c8 and f14_c10 on the torus, the rest
# on the Klein bottle); fixed by exhaustive rotation-system search.
_NAMED_CYCLES: dict[str, tuple[str, tuple[int, ...]]] = {
    "f13_c8": ("f13", (0, 1, 2, 3, 4, 5, 9, 11)),
    "f13_c8p": ("f13", (0, 1, 3, 4, 9, 10, 15, 16)),
    "f13_c10": ("f13", (0, 1, 4, 6, 9, 11, 13, 14, 15, 16)),
    "f14_c8": ("f14", (0, 2, 8, 10, 12, 13, 15, 17)),
    "f14_c9": ("f14", (0, 1, 2, 4, 8, 9, 14, 15, 17)),
    "f14_c10": ("f14", (0, 1, 2, 4, 5, 6, 8, 9, 15, 16)),
}

NAMED_CYCLE_MODES: dict[str, tuple[int, bool]] = {
    "f13_c8": (0, False), "f13_c8p": (0, False), "f13_c10": (0, False),
    "f14_c8": (0, True), "f14_c9": (0, False), "f14_c10": (0, True),
}


def named_cycle(name: str) -> tuple[MultiGraph, Cycle]:
    """Distinguished cycles used by the embedding certificates: f13_c8,
    f13_c8p, f13_c10 on F13 and f14_c8, f14_c9, f14_c10 on F14."""
    key = name.strip().lower()
    if key not in _NAMED_CYCLES:
        raise PreconditionError(f"unknown cycle name {name!r}")
    graph_name, ids = _NAMED_CYCLES[key]
    g = catalog(graph_name)
    return g, Cycle.from_edges(g, ids)
