import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracle_cycles
from oracle_cycles import enumerate_cycles
from conftest import random_connected_multigraph
from regma import optimize
from regma.catalog import catalog
from regma.errors import (AcyclicGraphError, DisconnectedGraphError,
                          PreconditionError)
from regma.exact import scale_to_ints
from regma.graph import (Cycle, MultiGraph, betti, edge_cut_below,
                         fundamental_cycles, girth, is_three_edge_connected,
                         min_cycle_value, min_cycles_per_edge, min_weight_cycle,
                         reduce_to_cubic, split_vertex)
from regma.optimize import systole

THETA = MultiGraph(2, ((0, 1), (0, 1), (0, 1)))


def scaled_min_cycles(g, w):
    """The integer `min_cycles_per_edge` on the Fraction weights w scaled
    once to integers, its integer values read back as Fractions."""
    den, iw = scale_to_ints(w)
    got = min_cycles_per_edge(g, iw)
    assert all(type(value) is int for value, _ in got.values())
    return {e: (Fraction(value, den), ids) for e, (value, ids) in got.items()}


def cycle_space_oracle(g):
    """Independent enumeration: nonzero cycle-space members that are
    connected and 2-regular."""
    from regma.exact import BitMatrix
    from regma.matroid import _kernel_basis_masks, graphic

    if not g.is_connected():
        raise ValueError("oracle wants connected input")
    rep = graphic(g).rep
    basis = _kernel_basis_masks(rep)
    members = [0]
    for b in basis:
        members += [x ^ b for x in members]
    out = set()
    for x in members:
        if not x:
            continue
        ids = frozenset(i for i in range(g.m) if (x >> i) & 1)
        try:
            out.add(Cycle.from_edges(g, ids).edge_ids)
        except PreconditionError:
            continue
    return out


class TestBetti:
    def test_values(self, petersen):
        assert betti(THETA) == 2
        assert betti(petersen) == 6
        assert betti(MultiGraph(1, ())) == 0

    def test_additive_over_components(self):
        tri = MultiGraph(3, ((0, 1), (1, 2), (0, 2)))
        two = MultiGraph(6, tri.edges + tuple((u + 3, v + 3) for u, v in tri.edges))
        assert betti(two) == 2 * betti(tri)

    def test_subdivision_invariant(self, k4):
        sub = MultiGraph(5, tuple(k4.edges[1:]) + ((0, 4), (4, 1)))
        assert betti(sub) == betti(k4)


class TestGirth:
    def test_named(self, petersen, heawood):
        assert girth(petersen) == 5
        assert girth(heawood) == 6
        assert girth(MultiGraph(4, ((0, 1), (1, 2), (2, 3)))) == float("inf")

    def test_loop_and_parallel(self):
        assert girth(MultiGraph(1, ((0, 0),))) == 1
        assert girth(THETA) == 2


class TestEdgeCut:
    def test_k4_none(self, k4):
        assert edge_cut_below(k4, 3) is None

    def test_bridge(self):
        assert edge_cut_below(MultiGraph(3, ((0, 1), (1, 2))), 2) == (0,)

    def test_f11_two_cut(self):
        f11 = catalog("f11")
        cut = edge_cut_below(f11, 3)
        assert cut is not None and len(cut) == 2
        assert nx_components(f11, set(cut)) == 2

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            edge_cut_below(MultiGraph(2, ()), 3)

    def test_cuts_of_three_or_more_rejected(self, k4):
        with pytest.raises(PreconditionError):
            edge_cut_below(k4, 4)


def nx_components(g, removed):
    """Connected components of g minus the removed edge ids, by networkx."""
    import networkx as nx

    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges[e] for e in range(g.m) if e not in removed)
    return nx.number_connected_components(h)


def random_multigraph(rng):
    """Connected, with loops and parallel edges frequent: a random spanning
    tree plus random extra edges, ids shuffled."""
    n = rng.randint(1, 8)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 7))]
    rng.shuffle(edges)
    return MultiGraph(n, tuple(edges))


class TestEdgeCutOracles:
    def test_bridges_against_networkx(self, rng):
        seen = {"bridge": 0, "none": 0, "loop": 0, "parallel": 0}
        for _ in range(300):
            g = random_multigraph(rng)
            bridges = [e for e in range(g.m) if nx_components(g, {e}) > 1]
            want = (bridges[0],) if bridges else None
            assert edge_cut_below(g, 2) == want, g
            seen["bridge" if want else "none"] += 1
            seen["loop"] += any(u == v for u, v in g.edges)
            seen["parallel"] += len({tuple(sorted(e)) for e in g.edges}) < g.m
        assert min(seen.values()) > 20

    def test_least_two_cut_by_deleting_pairs(self, rng):
        seen = {"bridge": 0, "pair": 0, "none": 0}
        for _ in range(300):
            g = random_multigraph(rng)
            cuts = [c for k in (1, 2) for c in combinations(range(g.m), k)
                    if nx_components(g, set(c)) > 1]
            want = min(cuts, key=lambda c: (len(c), c), default=None)
            assert edge_cut_below(g, 3) == want, g
            seen["none" if want is None else "bridge" if len(want) == 1 else "pair"] += 1
        assert min(seen.values()) > 20

    def test_one_cycle_per_non_tree_edge(self, rng):
        # the table's cycles are F2-independent cycles: one per edge outside
        # the tree, each containing that edge and no other non-tree edge
        for _ in range(100):
            g = random_multigraph(rng)
            cycles = fundamental_cycles(g)
            firsts = [c[0] for c in cycles]
            assert len(cycles) == betti(g)
            assert [s for _, s in firsts] == [1] * len(cycles)
            assert [e for e, _ in firsts] == sorted(e for e, _ in firsts)
            non_tree = {e for e, _ in firsts}
            for c in cycles:
                ids = [e for e, _ in c]
                assert len(set(ids)) == len(ids)
                assert Cycle.from_edges(g, ids).edge_ids & non_tree == {ids[0]}


class TestMinWeightCycle:
    def test_theta_uniform(self):
        c, v = min_weight_cycle(THETA, [Fraction(1, 3)] * 3)
        assert v == Fraction(2, 3) and sorted(c.edge_ids) == [0, 1]

    def test_moebius_ladder_weights(self):
        g = catalog("g54")
        w = [Fraction(1, 16)] * 8 + [Fraction(2, 16)] * 4
        _, v = min_weight_cycle(g, w)
        assert v == Fraction(3, 8)

    def test_zero_weight_loop(self):
        g = MultiGraph(3, ((0, 1), (1, 2), (0, 2), (1, 1)))
        w = [Fraction(1)] * 3 + [Fraction(0)]
        c, v = min_weight_cycle(g, w)
        assert v == 0 and c.edge_ids == frozenset([3])

    def test_forest_rejected(self):
        with pytest.raises(AcyclicGraphError):
            min_weight_cycle(MultiGraph(2, ((0, 1),)), [Fraction(1)])

    def test_matches_enumeration_on_random_graphs(self, rng):
        for _ in range(40):
            g = random_connected_multigraph(rng, max_edges=14)
            w = [Fraction(rng.randint(0, 30), rng.randint(1, 9)) for _ in range(g.m)]
            c, v = min_weight_cycle(g, w)
            cycles = enumerate_cycles(g)
            best = min(sum(w[e] for e in c2.edge_ids) for c2 in cycles)
            assert v == best
            # the reported tie-break is the lexicographically least edge set
            best_sets = sorted(sorted(c2.edge_ids) for c2 in cycles
                               if sum(w[e] for e in c2.edge_ids) == best)
            assert sorted(c.edge_ids) == best_sets[0]


class TestMinCyclesPerEdge:
    def test_matches_enumeration_on_random_graphs(self, rng):
        # the per-edge minima feed the systole's separation, so every edge's
        # value is checked, not only the global minimum, and each reported
        # set must be a cycle through its edge of that weight. The set is
        # not always the lexicographically least one: zero weights make
        # ties between cycles of different lengths common, and the labels'
        # sorted-tuple order is not kept when an edge is appended.
        seen = {"loop": 0, "parallel": 0, "zero": 0}
        for _ in range(150):
            g = random_connected_multigraph(rng, max_edges=13)
            w = [Fraction(rng.choice((0, 0, 1, 2, 3)), rng.randint(1, 3))
                 for _ in range(g.m)]
            want = {}
            for c in enumerate_cycles(g):
                weight = sum(w[x] for x in c.edge_ids)
                for e in c.edge_ids:
                    want[e] = min(want.get(e, weight), weight)
            got = scaled_min_cycles(g, w)
            assert {e: value for e, (value, _) in got.items()} == want
            for e, (value, ids) in got.items():
                c = Cycle.from_edges(g, ids)
                assert e in c.edge_ids and sum(w[x] for x in c.edge_ids) == value
                assert tuple(sorted(c.edge_ids)) == ids
            seen["loop"] += any(u == v for u, v in g.edges)
            seen["parallel"] += len({tuple(sorted(e)) for e in g.edges}) < g.m
            seen["zero"] += 0 in w
        assert min(seen.values()) > 10


def random_weighted_multigraph(rng):
    """Any multigraph on 0 to 8 vertices, often with loops, parallel edges,
    isolated vertices and several components, and weights that are often
    zero, over the denominators 1, 2, 3 and 7."""
    n = rng.randint(0, 8)
    m = rng.randint(0, 14) if n else 0
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
    w = [Fraction(rng.choice((0, 0, 1, 2, 3, 5)), rng.choice((1, 2, 3, 7)))
         for _ in range(m)]
    return MultiGraph(n, edges), w


class TestMinCyclesOracle:
    """The integer `min_cycles_per_edge` on weights scaled to integers keeps
    the Fraction search's labels and tie-break, so its dict, read back as
    Fractions, equals `oracle_cycles`' label for label."""

    def test_random_multigraphs(self):
        rng = random.Random(1212)
        seen = {"empty": 0, "isolated": 0, "loop": 0, "parallel": 0,
                "zero": 0, "mixed": 0}
        for _ in range(2000):
            g, w = random_weighted_multigraph(rng)
            got = scaled_min_cycles(g, w)
            want = oracle_cycles.min_cycles_per_edge(g, w)
            assert got == want and repr(got) == repr(want), (g, w)
            seen["empty"] += g.n == 0
            seen["isolated"] += any(not inc for inc in g.incidence) and g.m > 0
            seen["loop"] += any(u == v for u, v in g.edges)
            seen["parallel"] += len({tuple(sorted(e)) for e in g.edges}) < g.m
            seen["zero"] += 0 in w
            seen["mixed"] += len({x.denominator for x in w}) > 2
        assert min(seen.values()) > 100

    def test_separation_calls_of_systole(self, monkeypatch):
        # every weight vector the cutting planes separate, recorded through
        # a wrapper: the LP's integer numerators, on whose scale the
        # Fraction oracle must agree too
        calls = []

        def record(g, lam):
            calls.append((g, lam))
            return min_cycles_per_edge(g, lam)

        monkeypatch.setattr(optimize, "min_cycles_per_edge", record)
        for name in ("petersen", "f14", "heawood", "moebius_kantor"):
            systole(catalog(name))
        assert len(calls) == 7 + 5 + 6 + 10
        for g, lam in calls:
            assert all(type(x) is int for x in lam)
            got = min_cycles_per_edge(g, lam)
            assert got == oracle_cycles.min_cycles_per_edge(g, lam)


class TestMinCycleValue:
    def test_matches_enumeration_on_random_graphs(self):
        rng = random.Random(3131)
        acyclic = 0
        for _ in range(400):
            g, w = random_weighted_multigraph(rng)
            cycles = enumerate_cycles(g)
            if not cycles:
                acyclic += 1
                with pytest.raises(AcyclicGraphError):
                    min_cycle_value(g, w)
                continue
            want = min(sum(w[e] for e in c.edge_ids) for c in cycles)
            assert min_cycle_value(g, w) == want == min_weight_cycle(g, w)[1]
        assert 20 < acyclic < 200

    def test_table_witnesses_at_uniform_weights(self, petersen, heawood):
        assert min_cycle_value(petersen, [Fraction(1, 15)] * 15) == Fraction(1, 3)
        assert min_cycle_value(heawood, [Fraction(1)] * 21) == 6


class TestEnumerateCycles:
    def test_counts(self, k4, petersen):
        assert len(enumerate_cycles(k4)) == 7
        assert len(enumerate_cycles(THETA)) == 3
        pet = enumerate_cycles(petersen)
        assert 12 <= len(pet) <= 2000

    def test_matches_cycle_space_oracle(self, rng, petersen):
        got = {c.edge_ids for c in enumerate_cycles(petersen)}
        assert got == cycle_space_oracle(petersen)
        for _ in range(25):
            g = random_connected_multigraph(rng, max_edges=13)
            got = {c.edge_ids for c in enumerate_cycles(g)}
            assert got == cycle_space_oracle(g)


class TestReduceToCubic:
    def test_theta_terminal(self):
        red, trace = reduce_to_cubic(THETA)
        assert red.edges == THETA.edges and trace == ()

    def test_subdivided_k4(self, k4):
        sub = MultiGraph(5, tuple(k4.edges[1:]) + ((0, 4), (4, 1)))
        red, trace = reduce_to_cubic(sub)
        assert red.n == 4 and red.m == 6
        assert any(s.kind == "contract_two_cut" for s in trace)

    def test_pinned_trace_with_bridge_and_two_cut(self):
        # K4 on 0..3 with edge 0-1 subdivided by 4, and a bridge 2-5 to a loop
        g = MultiGraph(6, ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4),
                           (4, 1), (2, 5), (5, 5)))
        red, trace = reduce_to_cubic(g)
        assert [(s.kind, s.data) for s in trace] == [
            ("contract_bridge", (7,)), ("contract_two_cut", (5, 6)),
            ("split_vertex", (2,)), ("split_vertex", (2,))]
        assert trace[1].result.edges == ((0, 2), (0, 3), (1, 2), (1, 3),
                                         (2, 3), (0, 1), (2, 2))
        assert red.edges == ((0, 4), (0, 3), (1, 5), (1, 3), (2, 3), (0, 1),
                             (4, 5), (2, 4), (2, 5))

    def test_two_triangles(self):
        tri = MultiGraph(3, ((0, 1), (1, 2), (0, 2)))
        two = MultiGraph(6, tri.edges + tuple((u + 3, v + 3) for u, v in tri.edges))
        red, trace = reduce_to_cubic(two)
        assert betti(red) == 2 and red.n == 2
        kinds = {s.kind for s in trace}
        assert "join_components" in kinds

    def test_requires_betti_two(self):
        with pytest.raises(PreconditionError):
            reduce_to_cubic(MultiGraph(3, ((0, 1), (1, 2), (0, 2))))

    def test_properties_on_random_graphs(self, rng):
        allowed = {"join_components", "contract_bridge", "contract_two_cut",
                   "split_vertex"}
        for _ in range(20):
            g = random_connected_multigraph(rng, max_edges=12)
            if betti(g) < 2:
                continue
            red, trace = reduce_to_cubic(g)
            assert betti(red) == betti(g)
            assert all(red.degree(v) == 3 for v in range(red.n))
            assert edge_cut_below(red, 3) is None
            assert {s.kind for s in trace} <= allowed


class TestSplitVertex:
    def test_k5(self):
        k5 = catalog("k5")
        out = split_vertex(k5, 0)
        assert out.n == 6 and betti(out) == betti(k5)
        assert is_three_edge_connected(out)

    def test_wheel_hub(self):
        # W4: hub 0 joined to a 4-cycle 1..4
        w4 = MultiGraph(5, ((1, 2), (2, 3), (3, 4), (4, 1),
                            (0, 1), (0, 2), (0, 3), (0, 4)))
        out = split_vertex(w4, 0)
        assert is_three_edge_connected(out) and betti(out) == betti(w4)

    def test_degree_three_rejected(self, k4):
        with pytest.raises(PreconditionError):
            split_vertex(k4, 0)

    def test_contracts_back(self, rng):
        from regma.cubicgen import canonical_form
        from regma.graph import _contract

        k5 = catalog("k5")
        out = split_vertex(k5, 0)
        back = _contract(out, out.m - 1)
        assert canonical_form(back) == canonical_form(k5)


class TestFormats:
    def test_roundtrip(self, petersen):
        assert MultiGraph.parse(petersen.format()).edges == petersen.edges


edge_lists = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 min_size=1, max_size=10)))


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_betti_unaffected_by_subdividing(data):
    n, edges = data
    g = MultiGraph(n, tuple(edges))
    e = len(edges) - 1
    u, v = g.edges[e]
    sub = MultiGraph(n + 1, g.edges[:e] + ((u, n), (n, v)))
    assert betti(sub) == betti(g)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_betti_additive(data):
    n, edges = data
    g = MultiGraph(n, tuple(edges))
    shifted = tuple((u + n, v + n) for u, v in edges)
    double = MultiGraph(2 * n, g.edges + shifted)
    assert betti(double) == 2 * betti(g)
