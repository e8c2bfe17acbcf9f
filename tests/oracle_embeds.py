"""Reference embedding search: the unpruned `embeds_in` that
`regma.surface.embeds_in` must agree with certificate for certificate. It
walks every rotation system (mirror images included) against every sign
vector and counts all faces of each candidate before it looks at the pinned
face, so it needs no argument that a mirror image has the same faces, that
a face is at least a girth long, or that the pinned-face test commutes with
the count. Certificates get their faces from `regma.surface.trace_faces`,
which `oracle_faces` checks separately."""

from __future__ import annotations

from itertools import permutations, product

from regma.errors import DisconnectedGraphError, PreconditionError, check_guard
from regma.graph import Cycle, MultiGraph
from regma.surface import (EmbeddingCertificate, RotationSystem, _dart_tables,
                           _has_face, _search_space, _sign_candidates,
                           trace_faces)


def _face_walks(m: int, nxt, prv, signs) -> list[list[int]]:
    """One dart walk per face: every state is marked with its reversal, so
    each pair of opposite orbits is walked once. A graph without edges has
    one face, bounded by the empty walk."""
    total = 4 * m
    seen = bytearray(total)
    walks: list[list[int]] = []
    for s0 in range(total):
        if seen[s0]:
            continue
        walk = []
        s = s0
        while not seen[s]:
            d, side = s >> 1, s & 1
            t = d ^ 1
            flip = signs[d >> 1] < 0
            seen[s] = 1
            seen[(t << 1) | (side ^ 1 ^ flip)] = 1
            walk.append(d)
            side ^= flip
            s = ((prv[t] if side else nxt[t]) << 1) | side
        walks.append(walk)
    return walks or [[]]


def _rotation_candidates(g: MultiGraph):
    """All rotation systems, lexicographic: the first dart at each vertex is
    pinned (cyclic order), remaining darts permuted."""
    darts_at = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        darts_at[u].append(2 * e)
        darts_at[v].append(2 * e + 1)
    per_vertex = []
    for v in range(g.n):
        ds = darts_at[v]
        if len(ds) <= 1:
            per_vertex.append([tuple(ds)])
        else:
            head, rest = ds[0], ds[1:]
            per_vertex.append([(head,) + p for p in permutations(rest)])
    for combo in product(*per_vertex):
        yield tuple(combo)


def embeds_in(g: MultiGraph, chi: int, orientable: bool,
              face: Cycle | None = None,
              want_max: bool = False) -> EmbeddingCertificate | None:
    """First hit in lexicographic order with Euler characteristic >= chi
    (and the pinned face); with want_max, the first candidate attaining the
    maximum characteristic if it is >= chi."""
    if g.n == 0:
        raise PreconditionError("an embedding needs at least one vertex")
    if not g.is_connected():
        raise DisconnectedGraphError("embedding search requires a connected graph")
    check_guard(_search_space(g, orientable), 10 ** 9, "embeds_in search space")
    best: tuple[int, RotationSystem] | None = None
    sign_list = list(_sign_candidates(g, orientable))
    for rotations in _rotation_candidates(g):
        nxt, prv = _dart_tables(g.m, rotations)
        for signs in sign_list:
            got = g.n - g.m + len(_face_walks(g.m, nxt, prv, signs))
            if got < chi:
                continue
            rot = RotationSystem(rotations, signs)
            if face is not None or not want_max:
                faces = trace_faces(g, rot)
                if face is not None and not _has_face(faces, face):
                    continue
                if not want_max:
                    return EmbeddingCertificate(rot, tuple(faces), got)
            if best is None or got > best[0]:
                best = (got, rot)
    if best is None:
        return None
    chi_best, rot = best
    return EmbeddingCertificate(rot, tuple(trace_faces(g, rot)), chi_best)
