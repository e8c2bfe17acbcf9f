"""Reference face tracing: the orbit-pairing `trace_faces` that
`regma.surface.trace_faces` and the search's face count must agree with. It
walks all 4m (dart, side) states, then pairs each orbit with its reversal by
cyclic key, so it needs no argument that a walk and its reversal are distinct
orbits. A graph without edges has no states, so it gets no face here; the
library gives its one face the empty walk."""

from __future__ import annotations

from regma.errors import VerificationError
from regma.graph import MultiGraph
from regma.surface import RotationSystem, _cyclic_key


def _dart_tables(g: MultiGraph, rot: RotationSystem):
    """next/prev dart in the cyclic order at each dart's own vertex."""
    nxt = [0] * (2 * g.m)
    prv = [0] * (2 * g.m)
    for order in rot.rotations:
        k = len(order)
        for i, d in enumerate(order):
            nxt[d] = order[(i + 1) % k]
            prv[d] = order[(i - 1) % k]
    return nxt, prv


def trace_faces(g: MultiGraph, rot: RotationSystem) -> list[tuple[int, ...]]:
    """Boundary walks (dart sequences) of the 2-cell embedding given by rot.

    States are (dart, side); the successor crosses to the twin, flips the
    side on negative edges, and turns by the rotation (forward on side 0,
    backward on side 1). Orbits pair up as walk reversals; one walk per pair
    is returned, each orbit pair giving one face.
    """
    rot.validate(g)
    nxt, prv = _dart_tables(g, rot)
    signs = rot.signs
    total = 4 * g.m
    seen = [False] * total
    orbits: list[list[int]] = []
    for s0 in range(total):
        if seen[s0]:
            continue
        walk = []
        s = s0
        while not seen[s]:
            seen[s] = True
            d, side = divmod(s, 2)
            walk.append(d)
            t = d ^ 1
            nside = side ^ (signs[d >> 1] < 0)
            s = ((nxt[t] if nside == 0 else prv[t]) << 1) | nside
        orbits.append(walk)
    if len(orbits) % 2:
        raise VerificationError("face orbits must pair into walk reversals")
    # Pair each orbit with its reversal (twin darts in reverse order).
    keyed: dict[tuple[int, ...], list[int]] = {}
    for i, walk in enumerate(orbits):
        keyed.setdefault(_cyclic_key(walk), []).append(i)
    taken = [False] * len(orbits)
    faces: list[tuple[int, ...]] = []
    for i, walk in enumerate(orbits):
        if taken[i]:
            continue
        taken[i] = True
        rev = [d ^ 1 for d in reversed(walk)]
        j = next(k for k in keyed.get(_cyclic_key(rev), ()) if not taken[k])
        taken[j] = True
        faces.append(tuple(min(walk, rev, key=_cyclic_key)))
    return sorted(faces, key=_cyclic_key)
