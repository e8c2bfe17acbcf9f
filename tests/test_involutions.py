from fractions import Fraction

import pytest

from regma.catalog import catalog
from regma.errors import PreconditionError
from regma.cubicgen import generate_cubic
from regma.involutions import (InvolutionSet, _pruned_search, six_involutions,
                               verify_involutions)
from regma.matroid import BinaryMatroid, cographic, graphic, r10, sum1, sum2, sum3


def counts_of(m, vs):
    return tuple(sum(1 for v in vs if bin(v & c).count("1") % 2 == 0)
                 for c in m.columns)


def counts_ok(m, s):
    assert len(s.vs) == 6 and len(set(s.vs)) == 6 and 0 not in s.vs
    assert all(c >= 4 for c in s.counts)
    # recompute independently
    for j, col in enumerate(m.columns):
        k = sum(1 for v in s.vs if bin(v & col).count("1") % 2 == 0)
        assert k == s.counts[j]


class TestGraphicCase:
    def test_k7(self):
        m = graphic(catalog("k7"))
        s = six_involutions(m)
        counts_ok(m, s)
        # vertex functionals: every edge fails exactly two of the seven
        assert min(s.counts) >= 4

    def test_k5_padded(self):
        m = graphic(catalog("k5"))
        s = six_involutions(m)
        counts_ok(m, s)

    def test_small_graph_padded(self):
        m = graphic(catalog("k3"))
        counts_ok(m, six_involutions(m))


class TestCographicCase:
    def test_petersen(self, petersen):
        m = cographic(petersen)
        s = six_involutions(m)
        counts_ok(m, s)

    def test_k33(self, k33):
        m = cographic(k33)
        counts_ok(m, six_involutions(m))

    def test_k5_cographic(self):
        m = cographic(catalog("k5"))  # betti 6
        counts_ok(m, six_involutions(m))

    def test_g1_cographic(self):
        m = cographic(catalog("g1"))  # betti 6, not projective planar
        counts_ok(m, six_involutions(m))


class TestSporadicAndSums:
    def test_r10_padded_with_free_element(self):
        m = sum1(r10(), graphic(catalog("k2")))
        s = six_involutions(m)
        counts_ok(m, s)

    def test_sum2(self):
        m = sum2(graphic(catalog("k4")), "e0", graphic(catalog("k5")), "e0")
        counts_ok(m, six_involutions(m))

    def test_sum3(self):
        k5 = graphic(catalog("k5"))
        m = sum3(k5, ["e0", "e4", "e1"], k5, ["e0", "e4", "e1"])
        counts_ok(m, six_involutions(m))

    def test_rank_guard(self):
        with pytest.raises(PreconditionError):
            six_involutions(graphic(catalog("k8")))


class TestVerify:
    def test_uniform_k7(self):
        m = graphic(catalog("k7"))
        s = six_involutions(m)
        ok, ksum, bound = verify_involutions(m, [Fraction(1, m.size)] * m.size, s)
        assert ok and ksum <= bound

    def test_adversarial_count_three_fails(self, petersen):
        # a set with some kernel count 3 is refuted by concentrating weight
        m = cographic(petersen)
        s = six_involutions(m)
        bad_vs = None
        for v in range(1, 64):
            if v in s.vs:
                continue
            trial = (v,) + s.vs[1:]
            if len(set(trial)) < 6:
                continue
            counts = [sum(1 for x in trial if bin(x & c).count("1") % 2 == 0)
                      for c in m.columns]
            if min(counts) == 3:
                bad_vs = trial
                break
        assert bad_vs is not None
        weak = min(range(m.size), key=lambda j: sum(
            1 for x in bad_vs if bin(x & m.columns[j]).count("1") % 2 == 0))
        mult = [Fraction(0)] * m.size
        mult[weak] = Fraction(1)
        fake = InvolutionSet(bad_vs, (4,) * m.size)
        ok, ksum, bound = verify_involutions(m, mult, fake)
        assert not ok and ksum == 3 and bound == 2

    # On cographic(petersen) three elements lie in only three kernels of
    # these six vectors; the weighted sum alone hides it at uniform weights.
    FORGED = tuple(int(v, 2) for v in
                   ("000001", "001110", "010000", "010101", "100000", "100011"))

    @pytest.mark.parametrize("counts", [(4,) * 15, (4,), None])
    def test_forged_counts_fail(self, petersen, counts):
        m = cographic(petersen)
        assert sorted(counts_of(m, self.FORGED)).count(3) == 3
        forged = InvolutionSet(self.FORGED, counts or counts_of(m, self.FORGED))
        ok, ksum, bound = verify_involutions(m, [Fraction(1, m.size)] * m.size,
                                             forged)
        assert not ok and ksum <= bound

    def test_misstated_counts_fail(self, petersen):
        m = cographic(petersen)
        s = six_involutions(m)
        claimed = InvolutionSet(s.vs, tuple(c + 1 for c in s.counts))
        ok, _, _ = verify_involutions(m, [Fraction(1, m.size)] * m.size, claimed)
        assert not ok

    def test_vectors_outside_f2_6_fail(self, petersen):
        m = cographic(petersen)
        vs = tuple(1 << k for k in range(6, 12))
        forged = InvolutionSet(vs, counts_of(m, vs))
        ok, ksum, _ = verify_involutions(m, [Fraction(1, m.size)] * m.size,
                                         forged)
        assert not ok and ksum == 0

    def test_duplicate_vectors_fail(self):
        # on rank 2, functionals on coordinates 2..5 vanish on every column
        m = graphic(catalog("k3"))
        vs = (4, 8, 16, 32, 4, 8)
        fake = InvolutionSet(vs, counts_of(m, vs))
        ok, _, _ = verify_involutions(m, [Fraction(1, m.size)] * m.size, fake)
        assert not ok

    def test_random_multiplicities(self, rng, petersen):
        m = cographic(petersen)
        s = six_involutions(m)
        for _ in range(50):
            mult = [Fraction(rng.randint(0, 9)) for _ in range(m.size)]
            if not any(mult):
                continue
            ok, _, _ = verify_involutions(m, mult, s)
            assert ok


class TestFallback:
    def test_infeasible_detected(self):
        # all 63 nonzero columns of F2^6: element v fails every functional
        # not orthogonal to it; no six functionals can give counts >= 4
        cols = list(range(1, 64))
        found = _pruned_search(cols)
        assert found is None

    def test_unknown_provenance_uses_fallback(self, petersen):
        m = cographic(petersen)
        anon = BinaryMatroid(m.labels, m.rep, m.lift, ("unknown",))
        counts_ok(anon, six_involutions(anon))


def test_cographic_cubic_up_to_ten_vertices():
    # 27 matroids of rank n/2 + 1 <= 6, among them the cographic matroid of
    # g1, which does not embed in the projective plane
    ms = [cographic(g) for n in (4, 6, 8, 10) for g in generate_cubic(n)]
    assert len(ms) == 27
    for m in ms:
        s = six_involutions(m)
        ok, _, _ = verify_involutions(m, [Fraction(1, m.size)] * m.size, s)
        assert ok
