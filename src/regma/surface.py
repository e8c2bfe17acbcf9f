"""Surface embeddings of multigraphs via (signed) rotation systems.

Darts: edge e has two ends 2e and 2e+1; twin(d) = d ^ 1. A rotation system
is a cyclic order of darts at each vertex plus a sign per edge (+1/-1, all
+1 in orientable mode; signs are gauge-fixed to +1 on a spanning tree in the
nonorientable search). Faces are traced on states (dart, side). Each face
is one pair of opposite orbits, a walk and its reversal, so one walker marks
every state it visits together with its reversal state and meets each face
exactly once; the search counts those walks and `trace_faces` writes them
out.

The search skips, without reordering, candidates that cannot be its answer:
those whose pinned face is missing, those whose faces cannot reach the
count needed because each face is at least a girth long, and the mirror
images, which have the same faces as the candidates kept (Mohar and
Thomassen, Graphs on Surfaces, 2001).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Iterator, Sequence

from .errors import DisconnectedGraphError, PreconditionError, check_guard
from .graph import Cycle, MultiGraph, betti, fundamental_cycles, girth


@dataclass(frozen=True)
class RotationSystem:
    """rotations[v] = cyclic order of darts at v; signs[e] in {+1, -1}."""

    rotations: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]

    def validate(self, g: MultiGraph) -> None:
        if len(self.rotations) != g.n or len(self.signs) != g.m:
            raise PreconditionError("rotation system shape mismatch")
        if any(s not in (1, -1) for s in self.signs):
            raise PreconditionError("edge signs must be +1 or -1")
        seen: set[int] = set()
        for v, rot in enumerate(self.rotations):
            for d in rot:
                e, side = divmod(d, 2)
                if not 0 <= e < g.m:
                    raise PreconditionError(f"dart {d} out of range")
                if g.edges[e][side] != v:
                    raise PreconditionError(f"dart {d} listed at wrong vertex")
                if d in seen:
                    raise PreconditionError(f"dart {d} listed twice")
                seen.add(d)
        if len(seen) != 2 * g.m:
            raise PreconditionError("every edge end must appear exactly once")

    def orientable(self) -> bool:
        return all(s == 1 for s in self.signs)


@dataclass(frozen=True)
class EmbeddingCertificate:
    """2-cell embedding: faces are closed dart walks; chi = n - m + #faces."""

    rotation: RotationSystem
    faces: tuple[tuple[int, ...], ...]
    chi: int

    def to_json(self) -> str:
        payload = {
            "chi": self.chi,
            "orientable": self.rotation.orientable(),
            "rotations": [list(r) for r in self.rotation.rotations],
            "signs": list(self.rotation.signs),
            "faces": [list(f) for f in self.faces],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "EmbeddingCertificate":
        """Inverse of to_json; JSON of another shape raises ValueError,
        KeyError or TypeError."""
        data = json.loads(text)
        rotations = tuple(tuple(r) for r in data["rotations"])
        faces = tuple(tuple(f) for f in data["faces"])
        signs, chi = tuple(data["signs"]), data["chi"]
        entries = (chi, *signs, *(d for r in rotations + faces for d in r))
        if not all(type(x) is int for x in entries):
            raise ValueError("embedding certificate entries must be integers")
        return EmbeddingCertificate(RotationSystem(rotations, signs), faces, chi)


def _dart_tables(m: int, rotations: Sequence[Sequence[int]]):
    """next/prev dart in the cyclic order at each dart's own vertex."""
    nxt = [0] * (2 * m)
    prv = [0] * (2 * m)
    for order in rotations:
        k = len(order)
        for i, d in enumerate(order):
            nxt[d] = order[(i + 1) % k]
            prv[d] = order[(i - 1) % k]
    return nxt, prv


def _face_walks(m: int, nxt, prv, signs, need: int = 0,
                shortest: int = 1) -> list[list[int]]:
    """One dart walk per face, in the order of its least state.

    States are (dart, side), numbered 2 * dart + side; the successor crosses
    to the twin, flips the side on negative edges, and turns by the rotation
    (forward on side 0, backward on side 1). The reversed walk passes state
    (d ^ 1, side ^ 1 ^ [edge d >> 1 negative]), so marking that state too
    leaves one orbit of each face's pair to be walked. A graph without edges
    has one face, bounded by the empty walk.

    The walks of all faces hold 2m darts, and no face is shorter than
    `shortest`; the walker stops, with fewer than `need` walks, as soon as
    the darts left could not make up the faces missing.
    """
    total = 4 * m
    left = 2 * m
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
        left -= len(walk)
        if len(walks) + left // shortest < need:
            break
    return walks or [[]]


def _bounds_face(nxt, prv, signs, on_face: bytes, k: int, e: int) -> bool:
    """Whether the k-cycle with edge e and membership table `on_face`
    bounds a face: the test `_has_face` makes on the traced faces. Such a
    face passes e, and the two faces there are the orbits of the states of
    dart 2e. A walk that stays on the cycle's edges goes round it (it can
    only turn back at a vertex of degree 1), so the face is the cycle iff
    the walk keeps to its edges for k steps and is then back where it
    started, on the same side."""
    for s0 in (4 * e, 4 * e + 1):
        s = s0
        for _ in range(k):
            d = s >> 1
            if not on_face[d >> 1]:
                break
            t = d ^ 1
            side = (s & 1) ^ (signs[d >> 1] < 0)
            s = ((prv[t] if side else nxt[t]) << 1) | side
        else:
            if s == s0:
                return True
    return False


def trace_faces(g: MultiGraph, rot: RotationSystem) -> list[tuple[int, ...]]:
    """Boundary walks (dart sequences) of the 2-cell embedding given by rot:
    per face, the lesser of its walk and the reversal by `_cyclic_key`."""
    if g.n == 0:
        raise PreconditionError("an embedding needs at least one vertex")
    rot.validate(g)
    faces = []
    for walk in _face_walks(g.m, *_dart_tables(g.m, rot.rotations), rot.signs):
        rev = [d ^ 1 for d in reversed(walk)]
        faces.append(tuple(min(walk, rev, key=_cyclic_key)))
    return sorted(faces, key=_cyclic_key)


def _cyclic_key(walk: Sequence[int]) -> tuple[int, ...]:
    k = len(walk)
    w = list(walk)
    best = None
    for i in range(k):
        cand = tuple(w[i:] + w[:i])
        if best is None or cand < best:
            best = cand
    return best if best is not None else ()


def verify_certificate(g: MultiGraph, cert: EmbeddingCertificate,
                       face_cycle: Cycle | None = None) -> bool:
    """Cheap re-verification: re-trace the stored rotation system and check
    the face list, Euler characteristic, and edge-side double counting. A
    rotation system that does not fit g fails."""
    try:
        faces = trace_faces(g, cert.rotation)
    except PreconditionError:
        return False
    if g.n - g.m + len(faces) != cert.chi:
        return False
    if faces != sorted(cert.faces, key=_cyclic_key):
        return False
    # The search counts faces with the same walker, so this count is the
    # checker's own guard against a fault in it.
    per_edge = [0] * g.m
    for f in faces:
        for d in f:
            per_edge[d >> 1] += 1
    if any(c != 2 for c in per_edge):
        return False
    if face_cycle is not None and not _has_face(faces, face_cycle):
        return False
    return True


def _has_face(faces: Sequence[tuple[int, ...]], c: Cycle) -> bool:
    want = sorted(c.edge_ids)
    for f in faces:
        if len(f) == len(want) and sorted(d >> 1 for d in f) == want:
            return True
    return False


def _rotation_candidates(g: MultiGraph) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Rotation systems up to mirror image, lexicographic: the first dart at
    each vertex is pinned (cyclic order), remaining darts permuted. At the
    first vertex of degree >= 3 the second dart is less than the last one;
    the mirror image, every rotation reversed, is the one left out."""
    darts_at = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        darts_at[u].append(2 * e)
        darts_at[v].append(2 * e + 1)
    pin = next((v for v in range(g.n) if len(darts_at[v]) >= 3), None)
    per_vertex = []
    for v in range(g.n):
        ds = darts_at[v]
        if len(ds) <= 1:
            per_vertex.append([tuple(ds)])
        else:
            head, rest = ds[0], ds[1:]
            per_vertex.append([(head,) + p for p in permutations(rest)
                               if v != pin or p[0] < p[-1]])
    for combo in product(*per_vertex):
        yield tuple(combo)


def _sign_candidates(g: MultiGraph, orientable: bool) -> Iterator[tuple[int, ...]]:
    """Sign vectors, gauge-fixed to +1 on a spanning tree; all +1 first.
    The free edges are those outside the tree, one per fundamental cycle."""
    if orientable:
        yield (1,) * g.m
        return
    free = [cycle[0][0] for cycle in fundamental_cycles(g)]
    for bits in product((1, -1), repeat=len(free)):
        signs = [1] * g.m
        for e, s in zip(free, bits):
            signs[e] = s
        yield tuple(signs)


def _search_space(g: MultiGraph, orientable: bool) -> int:
    size = 1
    for v in range(g.n):
        size *= math.factorial(max(g.degree(v) - 1, 0))
    if not orientable:
        size <<= betti(g)
    return size


def embeds_in(g: MultiGraph, chi: int, orientable: bool,
              face: Cycle | None = None,
              want_max: bool = False) -> EmbeddingCertificate | None:
    """Search rotation systems (and sign classes in nonorientable mode) for a
    2-cell embedding with Euler characteristic >= chi; first hit in
    lexicographic order wins. With want_max, exhaust the space and return a
    certificate attaining the maximum characteristic if it is >= chi.
    When face is given, the cycle must appear as a face boundary, as the
    extension arguments need that attach a new vertex inside that disc; a
    face that is not a cycle of g raises PreconditionError.

    Three prunings skip only candidates that cannot be the answer, so the
    first hit, the want_max winner and every None are those of the full
    lexicographic walk:
    - the pinned face is tested before the faces are counted; a hit must
      pass both tests, so their order changes nothing;
    - a face walk that never turns back (every degree >= 2) contains a
      cycle, so each face holds at least girth(g) of the 2m darts. A
      candidate is dropped mid-count once its faces so far plus the darts
      left per girth fall short of the faces needed, and the search ends
      when 2m // girth do. With want_max, one face more than the best so
      far is needed, since only a strictly greater chi replaces it;
    - the mirror image of a rotation system, every rotation reversed, has
      the same closed face walks (state (d, side) becomes (d, 1 - side))
      and so the same count and pinned face. `_rotation_candidates` keeps
      of each pair the one that comes first in the product order, the one
      the full walk would meet first.
    """
    if g.n == 0:
        raise PreconditionError("an embedding needs at least one vertex")
    if not g.is_connected():
        raise DisconnectedGraphError("embedding search requires a connected graph")
    check_guard(_search_space(g, orientable), 10 ** 9, "embeds_in search space")
    base = g.n - g.m
    shortest = girth(g) if all(g.degree(v) >= 2 for v in range(g.n)) else 1
    most = 2 * g.m // shortest if g.m else 1
    need = chi - base
    if face is not None:
        Cycle.from_edges(g, face.edge_ids)  # a face of g must be a cycle of g
        on_face = bytes(e in face.edge_ids for e in range(g.m))
        e0, k = min(face.edge_ids), len(face)
    best: tuple[int, RotationSystem] | None = None
    sign_list = list(_sign_candidates(g, orientable))
    for rotations in _rotation_candidates(g):
        if need > most:
            break
        nxt, prv = _dart_tables(g.m, rotations)
        for signs in sign_list:
            if face is not None and not _bounds_face(nxt, prv, signs,
                                                     on_face, k, e0):
                continue
            got = len(_face_walks(g.m, nxt, prv, signs, need, shortest))
            if got < need:
                continue
            rot = RotationSystem(rotations, signs)
            if not want_max:
                return EmbeddingCertificate(rot, tuple(trace_faces(g, rot)),
                                            base + got)
            best = (base + got, rot)
            need = got + 1
    if best is None:
        return None
    chi_best, rot = best
    return EmbeddingCertificate(rot, tuple(trace_faces(g, rot)), chi_best)


def embedding_systole_bound(b: int, chi: int) -> Fraction:
    """Upper bound 2/(b - 1 + chi) on sys(G) for a Betti-b graph embeddable
    with Euler characteristic chi."""
    if b - 1 + chi <= 0:
        raise PreconditionError("bound needs b - 1 + chi > 0")
    return Fraction(2, b - 1 + chi)
