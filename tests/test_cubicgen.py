import hashlib
import math
from itertools import combinations

import pytest

import oracle_automorphisms
import oracle_canonical
import oracle_cubic
from conftest import random_connected_multigraph
from oracle_cubic import (KNOWN_COUNTS, THREE_CONNECTED_COUNTS,
                          all_labeled_cubic_graphs, is_connected_edges,
                          labeled_connected_cubic_count)
from regma import cubicgen
from regma.catalog import catalog
from regma.cubicgen import automorphisms, canonical_form, generate_cubic
from regma.errors import PreconditionError, VerificationError
from regma.graph import MultiGraph, betti, girth, is_three_edge_connected


def has_loop_or_parallel(g):
    return (any(u == v for u, v in g.edges)
            or len({tuple(sorted(e)) for e in g.edges}) < g.m)


def h_grown_multigraphs(max_n):
    """Cubic multigraphs on up to max_n vertices grown from theta and the
    dumbbell by H-insertions, one per oracle canonical form."""
    level = [MultiGraph(2, ((0, 1), (0, 1), (0, 1))),
             MultiGraph(2, ((0, 0), (0, 1), (1, 1)))]
    out = list(level)
    for _ in range(4, max_n + 1, 2):
        seen = {}
        for parent in level:
            pairs = combinations(range(parent.m), 2)
            for child in cubicgen._h_insertions(parent, pairs):
                seen.setdefault(oracle_canonical.canonical_form(child), child)
        level = list(seen.values())
        out += level
    return out


class TestCanonicalForm:
    def test_relabel_invariance(self, petersen, rng):
        base = canonical_form(petersen)
        for _ in range(5):
            perm = list(range(10))
            rng.shuffle(perm)
            g2 = MultiGraph(10, tuple((perm[u], perm[v]) for u, v in petersen.edges))
            assert canonical_form(g2) == base

    def test_k4_vs_permuted(self, k4, rng):
        perm = [2, 0, 3, 1]
        g2 = MultiGraph(4, tuple((perm[u], perm[v]) for u, v in k4.edges))
        assert canonical_form(g2) == canonical_form(k4)

    def test_f13_f14_distinct(self):
        assert canonical_form(catalog("f13")) != canonical_form(catalog("f14"))

    def test_multigraph_multiplicities(self):
        theta = MultiGraph(2, ((0, 1), (0, 1), (0, 1)))
        path3 = MultiGraph(2, ((0, 1), (0, 1)))
        assert canonical_form(theta) != canonical_form(path3)

    def test_random_multigraph_invariance(self, rng):
        for _ in range(15):
            g = random_connected_multigraph(rng, max_edges=10)
            perm = list(range(g.n))
            rng.shuffle(perm)
            g2 = MultiGraph(g.n, tuple(sorted((perm[u], perm[v]))
                                       for u, v in g.edges))
            assert canonical_form(g) == canonical_form(g2)


    def test_strings_pinned(self):
        # verify-tables prints these strings (argmax_canonical), so a change
        # of labelling must re-pin this digest and say so
        strings = [canonical_form(g) for n in range(4, 13, 2)
                   for g in generate_cubic(n)]
        assert len(strings) == 112
        digest = hashlib.sha256("\n".join(strings).encode()).hexdigest()
        assert digest == ("269609aa7715465b3cec235c7fd33c92"
                          "d0f46a7dd456f0be24515cb193077c61")


class TestOracleCanonical:
    """The pruned search gives the exhaustive search's strings, byte for
    byte."""

    def test_every_graph_canonised_in_generation(self, monkeypatch):
        # every child of the unpruned generation, not only the orbit leaders'
        seen = []

        def record(g):
            seen.append(g)
            return canonical_form(g)

        monkeypatch.setattr(oracle_cubic, "canonical_form", record)
        oracle_cubic.connected_cubic.cache_clear()
        oracle_cubic.connected_cubic(10)
        assert len(seen) == 447
        for g in seen:
            assert canonical_form(g) == oracle_canonical.canonical_form(g)

    def test_multigraphs(self, rng):
        # generation canonises only simple graphs; loops and parallel edges
        # come from H-grown cubic multigraphs and random multigraphs
        graphs = [g for g in h_grown_multigraphs(8) if has_loop_or_parallel(g)]
        while len(graphs) < 800:
            g = random_connected_multigraph(rng)
            if has_loop_or_parallel(g):
                graphs.append(g)
        assert any(u == v for g in graphs for u, v in g.edges)
        assert any(len(set(g.edges)) < g.m for g in graphs)
        for g in graphs:
            assert canonical_form(g) == oracle_canonical.canonical_form(g)

    @pytest.mark.parametrize("name", ["petersen", "f14", "heawood", "moebius_kantor"])
    def test_relabellings(self, name, rng):
        g = catalog(name)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = MultiGraph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))
            assert canonical_form(h) == oracle_canonical.canonical_form(h)


class TestAutomorphisms:
    def test_sizes(self, k4, petersen, heawood):
        assert len(automorphisms(k4)) == 24
        assert len(automorphisms(petersen)) == 120
        assert len(automorphisms(heawood)) == 336

    def test_group_closure(self, petersen):
        auts = automorphisms(petersen)
        aset = set(auts)
        a, b = auts[1], auts[2]
        assert tuple(a[b[v]] for v in range(10)) in aset

    def test_oracle_on_cubic_graphs(self):
        graphs = [g for n in range(4, 11, 2) for g in generate_cubic(n)]
        assert len(graphs) == 27
        for g in graphs:
            assert automorphisms(g) == oracle_automorphisms.automorphisms(g)

    def test_oracle_on_random_multigraphs(self, rng):
        # loops, parallel edges, isolated vertices and several components;
        # n = 0 has the one empty permutation
        for _ in range(600):
            n = rng.randint(0, 7)
            m = rng.randint(0, 12) if n else 0
            g = MultiGraph(n, tuple((rng.randrange(n), rng.randrange(n))
                                    for _ in range(m)))
            assert automorphisms(g) == oracle_automorphisms.automorphisms(g), g


def edge_set_orbit_count(g, k):
    """Orbits of the oracle automorphism group on k-sets of edges, by
    Burnside: the mean number of k-sets each automorphism fixes."""
    index = {frozenset(e): i for i, e in enumerate(g.edges)}
    auts = oracle_automorphisms.automorphisms(g)
    fixed = 0
    for p in auts:
        img = [index[frozenset((p[u], p[v]))] for u, v in g.edges]
        fixed += sum(1 for site in combinations(range(g.m), k)
                     if sorted(img[e] for e in site) == list(site))
    return fixed // len(auts)


class TestOrbitPruning:
    """Moves at orbit leaders only keep the graphs, edge tuples and order of
    moves at every edge and pair (tests/oracle_cubic.py)."""

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12,
                                   pytest.param(14, marks=pytest.mark.slow)])
    def test_same_graphs_as_unpruned(self, n):
        got = [(g.n, g.edges) for g in cubicgen._cubic(n, False)]
        assert got == [(g.n, g.edges) for g in oracle_cubic.connected_cubic(n)]

    def test_k4_children(self, k4):
        leaders = cubicgen._orbit_leaders
        assert len(list(cubicgen._h_insertions(k4, leaders(k4, 2)))) == 2
        assert len(list(cubicgen._diamond_insertions(k4, leaders(k4, 1)))) == 1
        assert len(list(cubicgen._blob_insertions(k4, leaders(k4, 1)))) == 1

    def test_one_leader_per_orbit(self):
        for n in (4, 6, 8, 10):
            for g in cubicgen._cubic(n, False):
                for k in (1, 2):
                    leaders = list(cubicgen._orbit_leaders(g, k))
                    assert leaders == sorted(leaders)
                    assert len(leaders) == edge_set_orbit_count(g, k)

    @staticmethod
    def canonical_form_calls(monkeypatch, three_connected):
        calls = []

        def count(g):
            calls.append(1)
            return canonical_form(g)

        monkeypatch.setattr(cubicgen, "canonical_form", count)
        cubicgen._cubic.cache_clear()
        cubicgen._cubic(12, three_connected)  # and n = 4..10 below it
        return len(calls)

    def test_canonical_form_calls(self, monkeypatch):
        assert self.canonical_form_calls(monkeypatch, False) == 580

    def test_canonical_form_calls_three_connected(self, monkeypatch):
        assert self.canonical_form_calls(monkeypatch, True) == 411

    def test_parallel_edges_rejected(self):
        theta = MultiGraph(2, ((0, 1), (0, 1), (0, 1)))
        with pytest.raises(PreconditionError):
            list(cubicgen._orbit_leaders(theta, 2))


class TestGenerate:
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_known_counts(self, n):
        graphs = list(generate_cubic(n))
        assert len(graphs) == KNOWN_COUNTS[n]
        keys = {canonical_form(g) for g in graphs}
        assert len(keys) == len(graphs)
        for g in graphs:
            assert all(g.degree(v) == 3 for v in range(g.n))
            assert g.is_connected()
            assert betti(g) == n // 2 + 1

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [14, 16])
    def test_known_counts_large(self, n):
        assert sum(1 for _ in generate_cubic(n)) == KNOWN_COUNTS[n]

    def test_unique_girth5_graphs(self):
        ten = list(generate_cubic(10, min_girth=5))
        assert len(ten) == 1
        assert canonical_form(ten[0]) == canonical_form(catalog("petersen"))

    @pytest.mark.slow
    def test_heawood_unique(self):
        fourteen = list(generate_cubic(14, min_girth=6))
        assert len(fourteen) == 1
        assert canonical_form(fourteen[0]) == canonical_form(catalog("heawood"))

    def test_filters(self):
        for g in generate_cubic(8, min_girth=4, three_edge_connected=True):
            assert girth(g) >= 4 and is_three_edge_connected(g)

    def test_odd_rejected(self):
        with pytest.raises(PreconditionError):
            list(generate_cubic(5))


class TestThreeConnected:
    """The 3-edge-connected class grown by H-insertion alone is the
    3-edge-connected part of the connected class."""

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12,
                                   pytest.param(14, marks=pytest.mark.slow)])
    def test_same_classes_as_filtered_oracle(self, n):
        got = [canonical_form(g)
               for g in generate_cubic(n, three_edge_connected=True)]
        assert got == [canonical_form(g) for g in oracle_cubic.connected_cubic(n)
                       if is_three_edge_connected(g)]

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12,
                                   pytest.param(14, marks=pytest.mark.slow),
                                   pytest.param(16, marks=pytest.mark.slow)])
    def test_known_counts(self, n):
        graphs = list(generate_cubic(n, three_edge_connected=True))
        assert len(graphs) == THREE_CONNECTED_COUNTS[n]

    def test_every_h_child_three_connected(self):
        # why the check in generate_cubic never fires: H-insertion at any
        # edge pair of a 3-edge-connected graph keeps it 3-edge-connected
        children = 0
        for n in range(4, 11, 2):
            for g in generate_cubic(n, three_edge_connected=True):
                pairs = combinations(range(g.m), 2)
                for child in cubicgen._h_insertions(g, pairs):
                    assert is_three_edge_connected(child), (g, child)
                    children += 1
        assert children == 15 + 2 * 36 + 4 * 66 + 14 * 105

    def test_no_diamond_or_blob_move(self, monkeypatch):
        def forbidden(g, sites):
            raise AssertionError("move outside the 3-edge-connected table")

        moves = tuple((step, move if move is cubicgen._h_insertions else forbidden,
                       size) for step, move, size in cubicgen._MOVES)
        monkeypatch.setattr(cubicgen, "_MOVES", moves)
        cubicgen._cubic.cache_clear()
        assert len(cubicgen._cubic(12, True)) == 57
        with pytest.raises(AssertionError):
            cubicgen._cubic(8, False)

    def test_non_three_connected_output_raises(self, monkeypatch):
        rejected = cubicgen._cubic(8, True)[-1]
        monkeypatch.setattr(cubicgen, "is_three_edge_connected",
                            lambda g: g is not rejected)
        with pytest.raises(VerificationError, match="not 3-edge-connected"):
            list(generate_cubic(8, three_edge_connected=True))


class TestPairModelOracle:
    # n = 8 canonises all 19,320 labeled graphs; in the default run
    # test_orbit_count_identity[8] and test_known_counts[8] cover it.
    @pytest.mark.parametrize("n", [4, 6, pytest.param(8, marks=pytest.mark.slow)])
    def test_set_equality_small(self, n):
        labeled = [e for e in all_labeled_cubic_graphs(n)
                   if is_connected_edges(n, e)]
        keys = {canonical_form(MultiGraph(n, e)) for e in labeled}
        assert keys == {canonical_form(g) for g in generate_cubic(n)}

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12,
                                   pytest.param(14, marks=pytest.mark.slow)])
    def test_orbit_count_identity(self, n):
        # sum over isomorphism classes of n!/|Aut| equals the labeled count,
        # proving the emitted set covers the pair model exactly
        total = 0
        for g in generate_cubic(n):
            total += math.factorial(n) // len(automorphisms(g))
        assert total == labeled_connected_cubic_count(n)

    def test_labeled_counts_cross_check(self):
        got = [len([e for e in all_labeled_cubic_graphs(n)
                    if is_connected_edges(n, e)]) for n in (4, 6, 8)]
        assert got == [labeled_connected_cubic_count(n) for n in (4, 6, 8)]
