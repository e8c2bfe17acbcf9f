from fractions import Fraction

import pytest

from regma.catalog import catalog
from regma.errors import DisconnectedGraphError, PreconditionError
from regma.graph import Cycle, MultiGraph, betti
from regma.surface import (EmbeddingCertificate, RotationSystem,
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

    def test_json_roundtrip(self, k33):
        cert = embeds_in(k33, 1, False)
        back = EmbeddingCertificate.from_json(cert.to_json())
        assert back == cert
        assert verify_certificate(k33, back)


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
