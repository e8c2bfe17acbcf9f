from fractions import Fraction
from itertools import combinations

import pytest

from oracle_cycles import enumerate_cycles
from regma.catalog import NAMED_CYCLE_MODES, _check, catalog, named_cycle
from regma.cubicgen import automorphisms, canonical_form
from regma.errors import PreconditionError, VerificationError
from regma.graph import betti, girth, is_three_edge_connected
from regma.surface import embeds_in


def edge_orbit_sizes(g):
    auts = automorphisms(g)
    orbits = {}
    for u, v in g.edges:
        key = min((min(p[u], p[v]), max(p[u], p[v])) for p in auts)
        orbits[key] = orbits.get(key, 0) + 1
    return sorted(orbits.values())


class TestBasicEntries:
    def test_all_names_construct(self):
        for name in ("theta", "k33", "g53", "g54", "petersen", "heawood",
                     "g1", "f11", "f12", "f13", "f14", "moebius_kantor",
                     "k4", "k7", "moebius_ladder5"):
            catalog(name)

    def test_wrong_facts_raise(self, k4):
        # an explicit error, which python -O does not strip like an assert
        with pytest.raises(VerificationError):
            _check(k4, 4, 6, 4, 3)

    def test_unknown(self):
        with pytest.raises(PreconditionError):
            catalog("borromean")

    def test_petersen_facts(self, petersen):
        assert petersen.n == 10 and petersen.m == 15
        assert girth(petersen) == 5 and betti(petersen) == 6

    def test_heawood_facts(self, heawood):
        assert heawood.n == 14 and heawood.m == 21 and girth(heawood) == 6

    def test_g53_structure(self):
        g = catalog("g53")
        assert g.n == 8 and g.m == 12 and girth(g) == 3 and betti(g) == 5


class TestObstructionGraphs:
    def test_f11_two_cut(self):
        from regma.graph import edge_cut_below

        f11 = catalog("f11")
        assert edge_cut_below(f11, 3) is not None

    def test_f12_structure(self):
        f12 = catalog("f12")
        assert is_three_edge_connected(f12)
        assert len(automorphisms(f12)) == 16
        assert edge_orbit_sizes(f12) == [2, 8, 8]

    def test_f12_orbit_weights_attain_two_sevenths(self):
        # Orbit weights lambda = 1/28 and mu = 2/28 on the two 8-orbits and
        # nu = 2/28 on the 2-orbit normalize to one and make every cycle
        # weigh at least 2/7 (the displayed nu = 3/28 fails 8l + 8m + 2n = 1).
        f12 = catalog("f12")
        auts = automorphisms(f12)
        orbits: dict = {}
        for i, (u, v) in enumerate(f12.edges):
            key = min((min(p[u], p[v]), max(p[u], p[v])) for p in auts)
            orbits.setdefault(key, []).append(i)
        buckets = sorted(orbits.values(), key=len)
        assert [len(b) for b in buckets] == [2, 8, 8]
        best = None
        for w8a, w8b in ((Fraction(1, 28), Fraction(2, 28)),
                         (Fraction(2, 28), Fraction(1, 28))):
            w = [Fraction(0)] * f12.m
            for e in buckets[0]:
                w[e] = Fraction(2, 28)
            for e in buckets[1]:
                w[e] = w8a
            for e in buckets[2]:
                w[e] = w8b
            assert sum(w) == 1
            low = min(sum(w[e] for e in c.edge_ids) for c in enumerate_cycles(f12))
            best = max(best or low, low)
        assert best == Fraction(2, 7)

    def test_f13_nine_cycle_structure(self):
        f13 = catalog("f13")
        cycles5 = [c for c in enumerate_cycles(f13) if len(c) == 5]
        per_vertex = {v: 0 for v in range(f13.n)}
        for c in cycles5:
            verts = {x for e in c.edge_ids for x in f13.edges[e]}
            for v in verts:
                per_vertex[v] += 1
        on_four = sorted(v for v, k in per_vertex.items() if k == 4)
        # the 9-cycle vertices are exactly those on four 5-cycles
        assert len(on_four) == 9
        nine = [c for c in enumerate_cycles(f13)
                if len(c) == 9 and
                {x for e in c.edge_ids for x in f13.edges[e]} == set(on_four)]
        assert nine, "no 9-cycle on the distinguished vertices"
        # tripod vertices: the remaining three, pairwise non-adjacent
        tripods = set(range(f13.n)) - set(on_four)
        assert len(tripods) == 3
        for u, v in f13.edges:
            assert not (u in tripods and v in tripods)

    def test_f13_dihedral_symmetry(self):
        # the automorphism group induces a dihedral action of order >= 18
        # on the distinguished 9-cycle vertices 0..8
        f13 = catalog("f13")
        auts = automorphisms(f13)
        induced = {tuple(p[v] for v in range(9)) for p in auts
                   if all(p[v] < 9 for v in range(9))}
        rotation = tuple((v + 1) % 9 for v in range(9))
        reflection = tuple((-v) % 9 for v in range(9))
        assert rotation in induced and reflection in induced
        assert len(induced) >= 18

    def test_f14_eight_cycle_structure(self):
        f14 = catalog("f14")
        cycles5 = [c for c in enumerate_cycles(f14) if len(c) == 5]
        per_vertex = {v: 0 for v in range(f14.n)}
        for c in cycles5:
            verts = {x for e in c.edge_ids for x in f14.edges[e]}
            for v in verts:
                per_vertex[v] += 1
        on_three = sorted(v for v, k in per_vertex.items() if k == 3)
        assert len(on_three) == 8
        eights = [c for c in enumerate_cycles(f14)
                  if len(c) == 8 and
                  {x for e in c.edge_ids for x in f14.edges[e]} == set(on_three)]
        assert len(eights) == 1, "exactly one 8-cycle on those vertices"
        # the other four vertices pair up along two edges h, h'
        rest = set(range(f14.n)) - set(on_three)
        hh = [e for e, (u, v) in enumerate(f14.edges)
              if u in rest and v in rest]
        assert len(hh) == 2
        assert per_vertex[next(iter(rest))] == 4

    def test_f13_f14_only_girth5(self):
        from regma.cubicgen import generate_cubic

        got = sorted(canonical_form(g) for g in generate_cubic(12, min_girth=5))
        want = sorted(canonical_form(catalog(n)) for n in ("f13", "f14"))
        assert got == want


class TestNamedCycles:
    @pytest.mark.parametrize("name", sorted(NAMED_CYCLE_MODES))
    def test_pinned_embedding_exists(self, name):
        g, c = named_cycle(name)
        chi, orientable = NAMED_CYCLE_MODES[name]
        cert = embeds_in(g, chi, orientable, face=c)
        assert cert is not None and cert.chi >= chi
        want = sorted(c.edge_ids)
        assert any(sorted(d >> 1 for d in f) == want for f in cert.faces)

    def test_lengths(self):
        for name, want in (("f13_c8", 8), ("f13_c8p", 8), ("f13_c10", 10),
                           ("f14_c8", 8), ("f14_c9", 9), ("f14_c10", 10)):
            _, c = named_cycle(name)
            assert len(c) == want


class TestNonProjectivePlanarity:
    @pytest.mark.parametrize("name", ["g1"] + [
        pytest.param(name, marks=pytest.mark.slow)
        for name in ("f11", "f12", "f13", "f14")])
    def test_no_rp2_embedding(self, name):
        assert embeds_in(catalog(name), 1, False) is None


@pytest.mark.slow
class TestDisjointTripleCover:
    """Every triple of pairwise vertex-disjoint edges of F13 (resp. F14)
    lies on a cycle bounding a face of some chi = 0 embedding, so every
    Betti-9 extension graph embeds in the torus or Klein bottle."""

    @pytest.mark.parametrize("name", ["f13", "f14"])
    def test_cover(self, name):
        g = catalog(name)
        pinnable: list[frozenset] = []
        checked: dict = {}
        auts = automorphisms(g)
        idx = {tuple(sorted(e)): i for i, e in enumerate(g.edges)}

        def orbit_key(c):
            return min(tuple(sorted(
                idx[tuple(sorted((p[g.edges[e][0]], p[g.edges[e][1]])))]
                for e in c.edge_ids)) for p in auts)

        cycles = enumerate_cycles(g)
        for c in cycles:
            key = orbit_key(c)
            if key not in checked:
                checked[key] = embeds_in(g, 0, False, face=c) is not None
            if checked[key]:
                pinnable.append(frozenset(c.edge_ids))

        def disjoint(e, f):
            return not (set(g.edges[e]) & set(g.edges[f]))

        for tri in combinations(range(g.m), 3):
            if not all(disjoint(a, b) for a, b in combinations(tri, 2)):
                continue
            assert any(set(tri) <= cs for cs in pinnable), tri
