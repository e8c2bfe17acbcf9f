import random
from fractions import Fraction

import networkx as nx
import pytest

import oracle_embeds
import oracle_faces
from oracle_cycles import enumerate_cycles
from regma import surface
from regma.catalog import NAMED_CYCLE_MODES, catalog, named_cycle
from regma.cubicgen import generate_cubic
from regma.errors import DisconnectedGraphError, PreconditionError, RegmaError
from regma.graph import Cycle, MultiGraph, betti
from regma.surface import (EmbeddingCertificate, RotationSystem, _cyclic_key,
                           _dart_tables, _face_walks, _rotation_candidates,
                           _search_space, _sign_candidates,
                           embedding_systole_bound, embeds_in, trace_faces,
                           verify_certificate)

THETA = MultiGraph(2, ((0, 1), (0, 1), (0, 1)))


def planar_theta_rotation():
    return RotationSystem(((0, 2, 4), (5, 3, 1)), (1, 1, 1))


class TestTraceFaces:
    def test_theta_planar(self):
        faces = trace_faces(THETA, planar_theta_rotation())
        assert len(faces) == 3
        assert 2 - 3 + len(faces) == 2

    def test_k4_planar(self, k4):
        cert = embeds_in(k4, 2, True)
        assert cert is not None and len(cert.faces) == 4

    def test_edge_side_double_counting(self, k4):
        cert = embeds_in(k4, 2, True)
        per_edge = [0] * k4.m
        for f in cert.faces:
            for d in f:
                per_edge[d >> 1] += 1
        assert per_edge == [2] * k4.m

    def test_heawood_hexagonal_torus(self, heawood):
        cert = embeds_in(heawood, 0, True)
        assert cert is not None and cert.chi == 0
        assert sorted(len(f) for f in cert.faces) == [6] * 7

    def test_nonorientable_loop(self):
        # single loop with sign -1: the projective plane, one face of size 2
        g = MultiGraph(1, ((0, 0),))
        rot = RotationSystem(((0, 1),), (-1,))
        faces = trace_faces(g, rot)
        assert len(faces) == 1 and len(faces[0]) == 2
        assert 1 - 1 + 1 == 1  # chi of RP2


def search_face_count(g, rot):
    """The face count embeds_in scores a candidate by."""
    nxt, prv = _dart_tables(g.m, rot.rotations)
    return len(_face_walks(g.m, nxt, prv, rot.signs))


def random_signed_rotation(rng):
    """A multigraph on at most 6 vertices with 1..9 edges, loops, parallel
    edges and isolated vertices allowed (so possibly disconnected), and a
    random rotation system with random signs."""
    n = rng.randint(1, 6)
    g = MultiGraph(n, tuple((rng.randrange(n), rng.randrange(n))
                            for _ in range(rng.randint(1, 9))))
    darts_at = [[] for _ in range(n)]
    for e, (u, v) in enumerate(g.edges):
        darts_at[u].append(2 * e)
        darts_at[v].append(2 * e + 1)
    for ds in darts_at:
        rng.shuffle(ds)
    signs = tuple(rng.choice((1, -1)) for _ in range(g.m))
    return g, RotationSystem(tuple(map(tuple, darts_at)), signs)


class TestFaceOracle:
    def test_random_signed_rotation_systems(self):
        rng = random.Random(20261018)
        for _ in range(2000):
            g, rot = random_signed_rotation(rng)
            want = oracle_faces.trace_faces(g, rot)
            assert trace_faces(g, rot) == want, (g, rot)
            assert search_face_count(g, rot) == len(want)

    @pytest.mark.parametrize("name", ["k4", "k33"])
    def test_every_search_candidate(self, name):
        # every rotation system times every gauge-fixed sign vector
        g = catalog(name)
        for rotations in oracle_embeds._rotation_candidates(g):
            for signs in _sign_candidates(g, False):
                rot = RotationSystem(rotations, signs)
                want = oracle_faces.trace_faces(g, rot)
                assert trace_faces(g, rot) == want
                assert search_face_count(g, rot) == len(want)


class TestEmbedsIn:
    def test_k33_not_planar(self, k33):
        assert embeds_in(k33, 2, True) is None

    def test_k33_projective(self, k33):
        cert = embeds_in(k33, 1, False)
        assert cert is not None and cert.chi == 1
        assert not cert.rotation.orientable()
        assert verify_certificate(k33, cert)

    def test_petersen_projective(self, petersen):
        cert = embeds_in(petersen, 1, False)
        assert cert is not None and cert.chi == 1
        assert sorted(len(f) for f in cert.faces) == [5] * 6

    def test_f13_klein_bottle(self):
        cert = embeds_in(catalog("f13"), 0, False)
        assert cert is not None and cert.chi >= 0

    def test_max_chi_k4(self, k4):
        cert = embeds_in(k4, -2, True, want_max=True)
        assert cert.chi == 2

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            embeds_in(MultiGraph(2, ()), 1, True)

    def test_single_vertex_is_a_sphere(self):
        # one face, bounded by the empty walk
        g = MultiGraph(1, ())
        for orientable in (True, False):
            cert = embeds_in(g, 2, orientable)
            assert cert is not None and cert.chi == 2 and cert.faces == ((),)
            assert verify_certificate(g, cert)

    def test_single_vertex_best_chi(self):
        cert = embeds_in(MultiGraph(1, ()), 1, True)
        assert cert.chi == 2
        assert embeds_in(MultiGraph(1, ()), -4, True, want_max=True).chi == 2

    def test_no_vertex_rejected(self):
        with pytest.raises(PreconditionError):
            embeds_in(MultiGraph(0, ()), 2, True)
        with pytest.raises(PreconditionError):
            trace_faces(MultiGraph(0, ()), RotationSystem((), ()))

    def test_planarity_matches_networkx(self):
        # every connected cubic graph on at most 10 vertices (27 of them)
        graphs = [g for n in (4, 6, 8, 10) for g in generate_cubic(n)]
        assert len(graphs) == 27
        for g in graphs:
            nxg = nx.MultiGraph(list(g.edges))
            planar, _ = nx.check_planarity(nxg)
            assert (embeds_in(g, 2, True) is not None) == planar, g

    def test_orientable_subset_of_nonorientable(self, k4):
        # the nonorientable search returns the planar certificate too
        cert = embeds_in(k4, 2, False)
        assert cert is not None and cert.chi == 2


class TestEmbedsWithFace:
    def test_k4_triangle_face(self, k4):
        c = Cycle.from_edges(k4, [0, 1, 3])  # (0,1),(0,2),(1,2)
        cert = embeds_in(k4, 2, True, face=c)
        assert cert is not None
        assert any(sorted(d >> 1 for d in f) == [0, 1, 3] for f in cert.faces)

    def test_verify_demands_pinned_face(self, k4):
        c = Cycle.from_edges(k4, [0, 1, 3])
        other = Cycle.from_edges(k4, [0, 2, 4])  # (0,1),(0,3),(1,3)
        cert = embeds_in(k4, 2, True, face=c)
        assert verify_certificate(k4, cert, c)
        assert verify_certificate(k4, cert, other)  # also a face of K4

    @pytest.mark.parametrize("forge", [
        lambda r: RotationSystem(r.rotations[:-1], r.signs),
        lambda r: RotationSystem(r.rotations, r.signs[:-1]),
        lambda r: RotationSystem((r.rotations[1],) + r.rotations[1:], r.signs),
        lambda r: RotationSystem(r.rotations, (2,) + r.signs[1:]),
    ], ids=["rotations-short", "signs-short", "wrong-vertex", "sign-2"])
    def test_misfit_rotation_fails(self, k4, forge):
        cert = embeds_in(k4, 2, True)
        forged = EmbeddingCertificate(forge(cert.rotation), cert.faces, cert.chi)
        assert verify_certificate(k4, forged) is False
        with pytest.raises(PreconditionError):
            trace_faces(k4, forged.rotation)

    @pytest.mark.parametrize("ids", [{0, 1}, {0, 1, 3, 40}, {-1, 0, 1}])
    def test_face_not_a_cycle_of_g_rejected(self, k4, ids):
        with pytest.raises(PreconditionError):
            embeds_in(k4, 2, True, face=Cycle(frozenset(ids)))

    def test_json_roundtrip(self, k33):
        cert = embeds_in(k33, 1, False)
        back = EmbeddingCertificate.from_json(cert.to_json())
        assert back == cert
        assert verify_certificate(k33, back)


def search_outcome(search, g, chi, orientable, face=None, want_max=False):
    """The certificate's JSON, None, or the type and text of the error."""
    try:
        cert = search(g, chi, orientable, face=face, want_max=want_max)
    except RegmaError as exc:
        return type(exc).__name__, str(exc)
    return cert and cert.to_json()


def random_search_graph(rng):
    """A connected multigraph on 1..5 vertices: a random tree (so degree-1
    vertices occur) plus up to 4 edges that may be loops or parallel; one
    draw in 40 adds an isolated vertex instead, which the search rejects."""
    n = rng.randint(1, 5)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n))
              for _ in range(rng.randint(0, 4))]
    rng.shuffle(edges)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    return MultiGraph(n + (rng.randrange(40) == 0), tuple(edges))


class TestSearchOracle:
    """embeds_in skips candidates by the pinned face, the girth bound and
    mirror images; the unpruned search must give the same answer."""

    def test_random_multigraphs(self):
        rng = random.Random(20261019)
        cases = [(MultiGraph(1, ()), chi, ori, None, wm)
                 for chi in range(-3, 4) for ori in (True, False)
                 for wm in (False, True)]
        while len(cases) < 1200:
            g = random_search_graph(rng)
            ori = rng.random() < 0.5
            if _search_space(g, ori) > 400:
                continue
            cycles = enumerate_cycles(g) if g.is_connected() else []
            face = rng.choice(cycles) if cycles and rng.random() < 0.4 else None
            cases.append((g, rng.randint(-3, 3), ori, face, rng.random() < 0.3))
        kinds = set()
        for g, chi, ori, face, wm in cases:
            got = search_outcome(embeds_in, g, chi, ori, face, wm)
            assert got == search_outcome(oracle_embeds.embeds_in, g, chi, ori,
                                         face, wm), (g, chi, ori, face, wm)
            kinds.add(type(got).__name__)
        assert kinds == {"str", "NoneType", "tuple"}

    @pytest.mark.parametrize("name,chi,orientable", [
        ("k33", 1, False), ("petersen", 1, False), ("heawood", 0, True),
        ("petersen", 2, False), ("g1", 1, False), ("k4", -2, True),
        ("k33", -5, False)])
    def test_catalog_searches(self, name, chi, orientable):
        g = catalog(name)
        for want_max in (False, True):
            if want_max and _search_space(g, orientable) > 5000:
                continue
            want = search_outcome(oracle_embeds.embeds_in, g, chi, orientable,
                                  want_max=want_max)
            assert search_outcome(embeds_in, g, chi, orientable,
                                  want_max=want_max) == want

    @pytest.mark.parametrize("cname", sorted(NAMED_CYCLE_MODES))
    def test_named_cycles(self, cname):
        g, c = named_cycle(cname)
        chi, orientable = NAMED_CYCLE_MODES[cname]
        want = search_outcome(oracle_embeds.embeds_in, g, chi, orientable, c)
        assert search_outcome(embeds_in, g, chi, orientable, c) == want


def counting(monkeypatch, name):
    """Count the calls the search makes to a surface helper."""
    calls = []
    inner = getattr(surface, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(surface, name, wrapper)
    return calls


class TestPruning:
    @pytest.mark.parametrize("chi,want_max", [(2, False), (9, True)])
    def test_girth_bound_walks_nothing(self, petersen, monkeypatch, chi, want_max):
        # 30 darts in faces of length >= 5 make at most 6 faces; chi = 2
        # needs 7 and chi = 9 needs 14
        walks = counting(monkeypatch, "_face_walks")
        assert embeds_in(petersen, chi, False, want_max=want_max) is None
        assert walks == []

    def test_one_of_each_mirror_pair(self, monkeypatch):
        g = catalog("g1")
        assert len(list(oracle_embeds._rotation_candidates(g))) == 1024
        tables = counting(monkeypatch, "_dart_tables")
        assert embeds_in(g, 1, False) is None
        assert len(tables) == 512

    def test_mirror_has_the_same_faces(self, k33):
        # the same closed walks; a walk may start elsewhere in the mirror
        def closed_walks(rot):
            return sorted(_cyclic_key(f) for f in trace_faces(k33, rot))

        kept = set(_rotation_candidates(k33))
        for rotations in kept:
            mirror = tuple(r[:1] + r[:0:-1] for r in rotations)
            assert mirror not in kept
            for signs in _sign_candidates(k33, False):
                assert (closed_walks(RotationSystem(mirror, signs))
                        == closed_walks(RotationSystem(rotations, signs)))

    def test_faces_shorter_than_needed(self, k4):
        # the count stops once the darts left cannot make the faces needed;
        # planar K4 has four triangles, so 12 darts meet the need of 4
        rot = embeds_in(k4, 2, True).rotation
        nxt, prv = _dart_tables(k4.m, rot.rotations)
        assert len(_face_walks(k4.m, nxt, prv, rot.signs, 4, 3)) == 4
        assert len(_face_walks(k4.m, nxt, prv, rot.signs, 5, 3)) < 5


class TestBound:
    def test_values(self):
        assert embedding_systole_bound(8, 0) == Fraction(2, 7)
        assert embedding_systole_bound(9, 0) == Fraction(1, 4)
        assert embedding_systole_bound(7, 1) == Fraction(2, 7)

    def test_degenerate(self):
        with pytest.raises(PreconditionError):
            embedding_systole_bound(1, 0)

    def test_certificate_bound_consistency(self, petersen):
        from regma.optimize import systole

        cert = embeds_in(petersen, 1, False)
        b = betti(petersen)
        assert systole(petersen).value <= embedding_systole_bound(b, cert.chi)
