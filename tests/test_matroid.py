import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import random_connected_multigraph
from oracle_cycles import enumerate_cycles
from oracle_matroid import circuits, isomorphic
from regma import exact, matroid
from regma.catalog import catalog
from regma.errors import (DisconnectedGraphError, PreconditionError,
                          RankDeficientError)
from regma.exact import BitMatrix, IntMatrix, odd_determinant_check, rank_f2
from regma.graph import MultiGraph, betti
from regma.matroid import (BinaryMatroid, Divide, Pullback, Pushforward,
                           Scale, WeightedRep, cographic, dual, graphic,
                           ksum_rep, odd_transform, r10, simplify, sum1, sum2,
                           sum3)
from regma.serialize import format_matroid, parse_matroid_expr

from test_cli import run_cli


def min_edge_cuts(g):
    """Exhaustive minimal (proper) edge cutsets of a connected multigraph."""
    out = []
    non_loops = [e for e, (u, v) in enumerate(g.edges) if u != v]
    for size in range(1, len(non_loops) + 1):
        for sub in combinations(non_loops, size):
            rest = tuple(uv for e, uv in enumerate(g.edges) if e not in sub)
            if len(MultiGraph(g.n, rest).components()) > 1:
                if not any(set(c) < set(sub) for c in out):
                    out.append(tuple(sorted(sub)))
    return sorted(out)


class TestGraphic:
    def test_k4(self, k4):
        m = graphic(k4)
        assert m.rank == 3 and m.size == 6
        assert {frozenset(c) for c in circuits(m)} == \
            {c.edge_ids for c in enumerate_cycles(k4)}

    def test_single_loop(self):
        m = graphic(MultiGraph(1, ((0, 0),)))
        assert m.rank == 0 and m.size == 1
        assert circuits(m) == [(0,)]

    def test_theta_parallel(self):
        m = graphic(MultiGraph(2, ((0, 1), (0, 1), (0, 1))))
        assert m.rank == 1 and m.size == 3

    def test_incidence_lift(self, k4):
        m = graphic(k4, root=0)
        # rows indexed by non-root vertices; column sums vanish with the root
        for j, (u, v) in enumerate(k4.edges):
            col = m.lift.col(j)
            nz = {i + 1: x for i, x in enumerate(col) if x}
            expect = {}
            if u != 0:
                expect[u] = -1
            if v != 0:
                expect[v] = 1
            assert nz == expect

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            graphic(MultiGraph(2, ()))


class TestCographic:
    def test_k33_rank(self, k33):
        m = cographic(k33)
        assert m.rank == 4 and m.size == 9

    def test_circuits_are_min_cuts(self, rng):
        for _ in range(12):
            g = random_connected_multigraph(rng, max_edges=11)
            got = sorted(circuits(cographic(g)))
            assert got == min_edge_cuts(g)

    def test_planar_duality_k4(self, k4):
        assert isomorphic(cographic(k4), graphic(k4)) is not None

    def test_tree(self):
        m = cographic(MultiGraph(3, ((0, 1), (1, 2))))
        assert m.rank == 0

    def test_empty_graph(self):
        m = cographic(MultiGraph(0, ()))
        assert (m.rank, m.size) == (0, 0)

    def test_k4_lift_pinned(self, k4):
        # k4 = 01 02 03 12 13 23; breadth-first tree 01 02 03 from vertex 0,
        # rows for 12, 13, 23 with each tree path signed as it runs
        assert k4.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        lift = cographic(k4).lift
        assert [lift.row(i) for i in range(lift.rows)] == [
            (-1, 1, 0, 1, 0, 0), (-1, 0, 1, 0, 1, 0), (0, -1, 1, 0, 0, 1)]

    def test_petersen_cut_sizes(self, petersen):
        assert all(len(c) >= 3 for c in circuits(cographic(petersen)))


class TestR10:
    def test_rank_and_labels(self):
        m = r10()
        assert m.rank == 5 and m.size == 10
        assert m.labels == ("e1", "e2", "e3", "e4", "e5",
                            "f1", "f2", "f3", "f4", "f5")

    def test_weight_pattern(self):
        # columns 6..10 are e_{i-1} - e_i + e_{i+1}, indices mod five
        m = r10()
        for i in range(5):
            col = list(m.lift.col(5 + i))
            expect = [0] * 5
            expect[(i - 1) % 5] += 1
            expect[i] -= 1
            expect[(i + 1) % 5] += 1
            assert col == expect

    def test_self_duality_under_pairing(self):
        # B is a basis iff the e/f-swapped complement is a basis; the
        # literal complement fails for e.g. {e1..e4, f1}, so the natural
        # self-duality pairing of R10 is part of the statement.
        m = r10()
        swap = {i: (i + 5) % 10 for i in range(10)}
        for s in combinations(range(10), 5):
            comp = tuple(sorted(swap[i] for i in set(range(10)) - set(s)))
            # both sides have m.rank elements: each is a basis iff it has full rank
            assert (m.subset_rank(s) == m.rank) == (m.subset_rank(comp) == m.rank)
        lit = tuple(sorted(set(range(10)) - {0, 1, 2, 3, 5}))
        assert m.subset_rank((0, 1, 2, 3, 5)) == 5 and m.subset_rank(lit) < 5

    def test_circuit_sizes(self):
        sizes = sorted(len(c) for c in circuits(r10()))
        assert sizes[0] == 4 and all(s >= 4 for s in sizes)

    def test_odd_determinant(self):
        assert odd_determinant_check(r10().lift).ok


class TestDual:
    def test_involution(self, k4, k33):
        for m in (graphic(k4), cographic(k33), r10()):
            dd = dual(dual(m))
            for s in combinations(range(m.size), min(m.rank, 3)):
                assert m.subset_rank(s) == dd.subset_rank(s)

    def test_rank_complement(self, petersen):
        m = graphic(petersen)
        assert m.rank + dual(m).rank == m.size

    def test_k4_cocircuits_are_cuts(self, k4):
        cuts = {frozenset(c) for c in circuits(dual(graphic(k4)))}
        assert cuts == {frozenset(c) for c in min_edge_cuts(k4)}
        assert {len(c) for c in cuts} == {3, 4}

    def test_r10_self_dual(self):
        a, _ = simplify(r10())
        b, _ = simplify(dual(r10()))
        assert isomorphic(a, b) is not None

    def test_dual_lift_odd(self, petersen):
        m = dual(graphic(petersen))
        assert m.lift is not None
        assert rank_f2(m.lift.mod2()) == m.rank

    def test_without_lift_same_matroid(self, k33):
        m = cographic(k33)
        lifted, bare = dual(m), dual(BinaryMatroid(m.labels, m.rep, None, ("test",)))
        assert bare.lift is None and bare.rank == lifted.rank
        for s in combinations(range(m.size), lifted.rank):
            assert bare.subset_rank(s) == lifted.subset_rank(s)

    @pytest.mark.parametrize("n", [1, 3])
    def test_free_matroid(self, n):
        # every edge of a path is a coloop, so graphic(path) is free
        free = graphic(MultiGraph(n + 1, tuple((i, i + 1) for i in range(n))))
        d = dual(free)
        assert (free.rank, d.rank, d.size) == (n, 0, n)
        assert dual(d).rank == n


class TestBasisComplementation:
    def test_graphic_cographic(self, rng):
        for _ in range(8):
            g = random_connected_multigraph(rng, max_edges=10)
            mg, mc = graphic(g), cographic(g)
            d = mg.rank
            for s in combinations(range(g.m), d):
                comp = tuple(sorted(set(range(g.m)) - set(s)))
                assert (mg.subset_rank(s) == mg.rank) == (mc.subset_rank(comp) == mc.rank)


class TestRegularityBridge:
    def test_f2_iff_q_independence(self, rng, petersen):
        import sympy

        mats = [graphic(catalog("k4")), cographic(catalog("k33")), r10(),
                cographic(petersen)]
        rng2 = random.Random(7)
        for m in mats:
            for _ in range(25):
                k = rng2.randint(1, m.rank)
                s = tuple(sorted(rng2.sample(range(m.size), k)))
                over_q = sympy.Matrix(
                    m.lift.select_cols(s).to_rows()).rank() == k
                assert (m.subset_rank(s) == len(s)) == over_q


class TestSums:
    def test_sum1_ranks_add(self, k4):
        s = sum1(graphic(k4), graphic(k4))
        assert s.rank == 6 and s.size == 12
        assert odd_determinant_check(s.lift).ok

    def test_sum1_rank_zero(self):
        # two loops: the lift is 0 x 2, not 0 x 0
        loop = graphic(MultiGraph(1, ((0, 0),)))
        s = sum1(loop, loop)
        assert (s.rank, s.size, s.lift.cols) == (0, 2, 2)
        assert circuits(s) == [(0,), (1,)]

    def test_sum2_is_clique_sum(self, k4):
        s = sum2(graphic(k4), "e0", graphic(k4), "e0")
        assert s.rank == 5 and s.size == 10
        # glue two K4s along the edge (0,1): vertices 4,5 mirror 2,3
        glued_edges = [e for e in k4.edges if e != (0, 1)]
        remap = {0: 0, 1: 1, 2: 4, 3: 5}
        glued_edges += [(remap[u], remap[v]) for u, v in k4.edges if (u, v) != (0, 1)]
        glued = MultiGraph(6, tuple(glued_edges))
        assert sorted(circuits(s)) == sorted(circuits(graphic(glued)))
        assert odd_determinant_check(s.lift).ok

    def test_sum2_preconditions(self, k4):
        with pytest.raises(PreconditionError):
            sum2(graphic(MultiGraph(1, ((0, 0),))), "e0",
                 graphic(k4), "e0")  # zero column glue

    def test_sum2_at_coloops(self):
        # both edges of the path 0-1-2 are coloops: one glued coloop gives
        # the free matroid of the three-edge path, two glued coloops would
        # lose a rank
        path = graphic(MultiGraph(3, ((0, 1), (1, 2))))
        triangle = graphic(MultiGraph(3, ((0, 1), (1, 2), (0, 2))))
        for s in (sum2(path, "e1", triangle, "e0"), sum2(triangle, "e0", path, "e1")):
            assert (s.rank, s.size) == (3, 3) and circuits(s) == []
            assert odd_determinant_check(s.lift).ok
        with pytest.raises(PreconditionError, match="two coloops"):
            sum2(path, "e1", path, "e0")

    def test_sum3_cographic_k33(self, k33):
        # stars of a vertex in each copy, glued; cographic of the vertex-
        # identified graph per the gluing description
        m1, m2 = cographic(k33), cographic(k33)
        star = [f"e{e}" for e, _ in k33.incidence[0]]
        s = sum3(m1, star, m2, star)
        assert s.rank == 6 and s.size == 12
        # glue graphs: remove vertex 0 from each copy; identify the three
        # neighbors pairwise in order
        edges = []
        for u, v in k33.edges:
            if 0 in (u, v):
                continue
            edges.append((u, v))
        shift = {v: v + 6 for v in range(6)}
        nbrs = [v for v in range(6) if any({u, w} == {0, v} for u, w in k33.edges)]
        for u, v in k33.edges:
            if 0 in (u, v):
                continue
            edges.append((shift[u], shift[v]))
        ident = {shift[v]: v for v in nbrs}
        final = []
        for u, v in edges:
            final.append((ident.get(u, u), ident.get(v, v)))
        used = sorted({x for e in final for x in e})
        remap = {v: i for i, v in enumerate(used)}
        glued = MultiGraph(len(used), tuple((remap[u], remap[v]) for u, v in final))
        assert betti(glued) == 6
        assert isomorphic(s, cographic(glued)) is not None

    def test_sum3_f2_zero_sum_required(self, k33):
        # e0, e1, e3 = (0,3), (0,4), (1,3): independent, so no zero sum
        m = cographic(k33)
        assert m.subset_rank([0, 1, 3]) == 3
        with pytest.raises(PreconditionError):
            sum3(m, ["e0", "e1", "e3"], m, ["e0", "e1", "e3"])

    def test_rank_arithmetic(self, k4, k33):
        m1, m2 = graphic(k4), graphic(catalog("k5"))
        assert sum1(m1, m2).rank == m1.rank + m2.rank
        assert sum2(m1, "e0", m2, "e3").rank == m1.rank + m2.rank - 1
        k5 = catalog("k5")
        tri = ["e0", "e4", "e1"]
        s3 = sum3(graphic(k5), tri, graphic(k5), tri)
        assert s3.rank == 4 + 4 - 2 + 0 or s3.rank == 4 + 4 - 2
        assert s3.rank <= 4 + 4 - 3 + 1


def _clique_sum(g, shared, drop):
    """Two copies of g glued along the vertices in shared (the second copy's
    other vertices renumbered after g's), without the edges in drop; edge
    order matches the sums' labels: the first copy's, then the second's."""
    others = [v for v in range(g.n) if v not in shared]
    remap = {v: v for v in shared} | {v: g.n + i for i, v in enumerate(others)}
    kept = [e for i, e in enumerate(g.edges) if i not in drop]
    edges = kept + [(remap[u], remap[v]) for u, v in kept]
    return MultiGraph(g.n + len(others), tuple(edges))


class TestLiftlessSums:
    """Sums of file: matroids without a LIFT section take the F2 path."""

    @pytest.fixture
    def bare(self, tmp_path):
        def write(name, m):
            path = tmp_path / f"{name}.txt"
            path.write_text(format_matroid(BinaryMatroid(m.labels, m.rep)))
            return f"file:{path}"
        return write

    def test_sum1(self, bare, k4):
        f = bare("k4", graphic(k4))
        s = parse_matroid_expr(f"sum1({f}, {f})")
        assert s.lift is None and s.rank == 6
        assert circuits(s) == circuits(graphic(_clique_sum(k4, {0}, set())))

    def test_sum2(self, bare, k4):
        f = bare("k4", graphic(k4))
        s = parse_matroid_expr(f"sum2({f}@e0, {f}@e0)")
        assert s.lift is None and s.rank == 5
        assert circuits(s) == circuits(graphic(_clique_sum(k4, {0, 1}, {0})))

    def test_sum3(self, bare):
        k5 = catalog("k5")
        f = bare("k5", graphic(k5))
        s = parse_matroid_expr(f"sum3({f}@{{e0,e4,e1}}, {f}@{{e0,e4,e1}})")
        assert s.lift is None and s.rank == 6
        assert circuits(s) == circuits(graphic(_clique_sum(k5, {0, 1, 2}, {0, 4, 1})))

    def test_mixed_sides_match_liftless(self, bare, k4):
        f = bare("k4", graphic(k4))
        mixed = parse_matroid_expr(f"sum2({f}@e0, graphic(builtin:k4)@e0)")
        assert mixed.lift is None
        assert circuits(mixed) == circuits(graphic(_clique_sum(k4, {0, 1}, {0})))

    def test_sum3_without_signed_zero_sum_falls_back(self):
        # lift columns (1,0), (0,1), (1,3) sum to zero mod 2, but no signs
        # make them sum to zero over Z
        lift = IntMatrix.from_rows([[1, 0, 1, 1, 0, 1, 1], [0, 1, 3, 0, 1, 1, 0]])
        m = BinaryMatroid(tuple(f"e{i}" for i in range(7)), lift.mod2(), lift)
        k5 = graphic(catalog("k5"))
        s = sum3(m, ["e0", "e1", "e2"], k5, ["e0", "e4", "e1"])
        assert s.lift is None and s.rank == 4
        plain = sum3(BinaryMatroid(m.labels, m.rep), ["e0", "e1", "e2"],
                     BinaryMatroid(k5.labels, k5.rep), ["e0", "e4", "e1"])
        assert s.rep == plain.rep


class TestKsumRep:
    def test_one_sum_identity(self):
        r1 = WeightedRep.uniform(IntMatrix.from_rows([[1]]))
        out = ksum_rep(r1, r1, 1)
        assert out.h.to_rows() == [[1, 0], [0, 1]]
        assert out.mult == (Fraction(1, 2), Fraction(1, 2))

    def test_two_sum_matches_clique_sum(self, k4):
        m1 = graphic(k4)
        out = ksum_rep(WeightedRep.uniform(m1.lift),
                       WeightedRep.uniform(m1.lift), 2, (0, 0))
        s = sum2(m1, "e0", m1, "e0")
        got = BinaryMatroid(s.labels, out.h.mod2(), out.h, ("test",))
        assert sorted(circuits(got)) == sorted(circuits(s))
        assert odd_determinant_check(out.h).ok

    def test_three_sum_regular(self, k33):
        m = cographic(k33)
        star = [m.label_index(f"e{e}") for e, _ in k33.incidence[0]]
        idx = _signed_triple(m, star)
        out = ksum_rep(WeightedRep.uniform(m.lift),
                       WeightedRep.uniform(m.lift), 3, (idx, idx))
        assert out.h.rows == 6
        assert odd_determinant_check(out.h).ok

    def test_randomized_outputs_pass_odd_check(self, rng):
        for _ in range(6):
            g1 = random_connected_multigraph(rng, max_edges=8)
            g2 = random_connected_multigraph(rng, max_edges=8)
            m1, m2 = graphic(g1), graphic(g2)
            nz1 = [j for j in range(m1.size) if m1.columns[j]]
            nz2 = [j for j in range(m2.size) if m2.columns[j]]
            if not nz1 or not nz2:
                continue
            out = ksum_rep(WeightedRep.uniform(m1.lift),
                           WeightedRep.uniform(m2.lift), 2,
                           (rng.choice(nz1), rng.choice(nz2)))
            assert odd_determinant_check(out.h).ok

    def test_keep_glued_convention(self, k4):
        m1 = graphic(k4)
        out = ksum_rep(WeightedRep.uniform(m1.lift),
                       WeightedRep.uniform(m1.lift), 2, (0, 0),
                       keep_glued=True)
        assert out.h.cols == 11
        assert sum(out.mult) == 1


def _signed_triple(m, star):
    """Reorder/orient a cographic star triple so the integer columns sum to
    zero (flip signs are immaterial for index selection)."""
    return tuple(star)


class TestSimplify:
    def test_theta(self):
        m, mapping = simplify(graphic(MultiGraph(2, ((0, 1), (0, 1), (0, 1)))))
        assert m.size == 1 and m.rank == 1
        assert mapping == [0, 0, 0]

    def test_zero_column_dropped(self):
        g = MultiGraph(2, ((0, 1), (0, 1), (0, 0)))
        m, mapping = simplify(graphic(g))
        assert m.size == 1 and mapping[2] is None

    def test_f2_only_path(self):
        from regma.exact import BitMatrix

        rep = BitMatrix.from_rows([[1, 0, 1, 1, 0], [0, 1, 1, 0, 0]])
        m = BinaryMatroid(tuple("abcde"), rep, None, ("test",))
        s, mapping = simplify(m)
        assert s.size == 3 and s.lift is None
        assert mapping == [0, 1, 2, 0, None]
        assert s.labels == ("a", "b", "c")

    def test_lift_not_parallel_over_q(self, tmp_path):
        # columns (1,0) and (1,2) agree mod 2 but span a plane over Q
        path = tmp_path / "m.txt"
        path.write_text("2 3\n110\n001\nLIFT\n1 1 0\n0 2 1\n")
        with pytest.raises(PreconditionError,
                           match="columns 0 and 1 equal over F2 but not parallel over Q"):
            simplify(parse_matroid_expr(f"file:{path}"))

    def test_cographic_bridge_trivial(self):
        # a bridge gives a zero cohomology class: same simplification as the
        # contracted graph
        g = MultiGraph(4, ((0, 1), (1, 2), (1, 3), (2, 3), (2, 3)))
        contracted = MultiGraph(3, ((0, 1), (0, 2), (1, 2), (1, 2)))
        a, _ = simplify(cographic(g))
        b, _ = simplify(cographic(contracted))
        assert isomorphic(a, b) is not None


class TestOddTransform:
    def test_scale_identity(self):
        r = WeightedRep.uniform(r10().lift)
        out = odd_transform(r, Scale((1,) * 10))
        assert out.h.entries == r.h.entries

    def test_pullback_divide_inverse(self):
        r = WeightedRep.uniform(r10().lift)
        three = IntMatrix.from_rows([[3 if i == j else 0 for j in range(5)]
                                     for i in range(5)])
        out = odd_transform(odd_transform(r, Pullback(three)), Divide((3,) * 10))
        assert out.h.entries == r.h.entries

    def test_pushforward_inverts_pullback(self):
        r = WeightedRep.uniform(r10().lift)
        a = IntMatrix.from_rows([[1, 2, 0, 0, 0], [0, 1, 0, 0, 0],
                                 [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                                 [0, 0, 0, 0, 1]])
        assert odd_transform(odd_transform(r, Pullback(a)), Pushforward(a)).h.entries == r.h.entries

    def test_pushforward_rejects_even_and_non_square_maps(self):
        r = WeightedRep.uniform(r10().lift)
        even = IntMatrix.from_rows([[2 if i == j == 0 else int(i == j) for j in range(5)]
                                    for i in range(5)])
        wide = IntMatrix.from_rows([[int(i == j) for j in range(6)] for i in range(5)])
        small = IntMatrix.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
        for a in (even, wide, small):
            with pytest.raises(PreconditionError,
                               match="pushforward needs a square odd-determinant map"):
                odd_transform(r, Pushforward(a))

    def test_pullback_rejects_non_square_map(self):
        r = WeightedRep.uniform(r10().lift)
        wide = IntMatrix.from_rows([[int(i == j) for j in range(6)] for i in range(5)])
        with pytest.raises(PreconditionError,
                           match="pullback needs a square odd-determinant map"):
            odd_transform(r, Pullback(wide))

    def test_pushforward_must_stay_integral(self):
        # diag(3,1,1,1,1) has odd determinant, but R10's first row is not
        # divisible by 3
        r = WeightedRep.uniform(r10().lift)
        a = IntMatrix.from_rows([[3 if i == j == 0 else int(i == j) for j in range(5)]
                                 for i in range(5)])
        with pytest.raises(PreconditionError,
                           match="pushforward does not preserve integrality"):
            odd_transform(r, Pushforward(a))

    def test_pushforward_against_sympy_inverse(self):
        # seeded odd-determinant maps on R10's lift: a pullback is undone by
        # the pushforward, and a pushforward that stays integral is (aᵀ)⁻¹h
        import sympy

        rng = random.Random(1919)
        r = WeightedRep.uniform(r10().lift)
        h = sympy.Matrix(r.h.to_rows())
        integral = 0
        for _ in range(60):
            while True:
                a = IntMatrix(5, 5, tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(25)))
                if sympy.Matrix(a.to_rows()).det() % 2:
                    break
            assert odd_transform(odd_transform(r, Pullback(a)), Pushforward(a)).h == r.h
            want = sympy.Matrix(a.to_rows()).T.inv() * h
            if all(x.is_integer for x in want):
                integral += 1
                assert odd_transform(r, Pushforward(a)).h.to_rows() == want.tolist()
            else:
                with pytest.raises(PreconditionError, match="integrality"):
                    odd_transform(r, Pushforward(a))
        assert 5 <= integral <= 55

    def test_scale_keeps_odd_check(self, k4):
        r = WeightedRep.uniform(graphic(k4).lift)
        out = odd_transform(r, Scale((1, 3, 1, 1, 5, 1)))
        assert odd_determinant_check(out.h).ok

    def test_even_rejected(self):
        r = WeightedRep.uniform(r10().lift)
        with pytest.raises(PreconditionError):
            odd_transform(r, Scale((2,) + (1,) * 9))
        with pytest.raises(PreconditionError):
            odd_transform(r, Divide((3,) + (1,) * 9))


class TestIsomorphic:
    def test_identity(self, k4):
        m = graphic(k4)
        assert isomorphic(m, m) == {i: i for i in range(6)}

    def test_k4_self_dual(self, k4):
        assert isomorphic(graphic(k4), cographic(k4)) is not None

    def test_k4_not_cographic_k33(self, k4, k33):
        assert isomorphic(graphic(k4), cographic(k33)) is None

    def test_requires_simple(self):
        theta = graphic(MultiGraph(2, ((0, 1), (0, 1), (0, 1))))
        with pytest.raises(PreconditionError):
            isomorphic(theta, theta)


class TestConstructionChecks:
    """Each construction check eliminates its matrix once."""

    def test_weighted_rep_one_rank_q(self, monkeypatch):
        lift = r10().lift
        calls = []
        real = exact.rank_q

        def count(m):
            calls.append(1)
            return real(m)

        monkeypatch.setattr(exact, "rank_q", count)
        monkeypatch.setattr(matroid, "rank_q", count)
        WeightedRep.uniform(lift)
        assert len(calls) == 1

    @pytest.mark.parametrize("budget", [matroid.ODD_CHECK_BUDGET, 0])
    def test_rank_deficient_rejected_either_side_of_budget(self, monkeypatch,
                                                          budget):
        monkeypatch.setattr(matroid, "ODD_CHECK_BUDGET", budget)
        with pytest.raises(RankDeficientError):
            WeightedRep.uniform(IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]]))

    def test_lifted_constructor_no_rref(self, monkeypatch, heawood):
        # a lift whose mod-2 reduction is rep needs no row-space comparison:
        # the one echelon form is the rank's
        calls = []
        real = exact.f2_echelon

        def count(words):
            calls.append(1)
            return real(words)

        monkeypatch.setattr(exact, "f2_echelon", count)
        monkeypatch.setattr(matroid, "f2_echelon", count)
        cographic(heawood)
        assert len(calls) == 1

    def test_lift_other_mod2_same_row_space(self):
        rep = BitMatrix.from_rows([[1, 0], [1, 1]])
        m = BinaryMatroid(("a", "b"), rep, IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert m.lift.mod2() != m.rep

    def test_file_lift_other_row_space(self, tmp_path):
        mfile = tmp_path / "m.txt"
        mfile.write_text("1 2\n1 0\nLIFT\n0 1\n")
        rc, out, err = run_cli("cogirth", f"file:{mfile}")
        assert (rc, out) == (2, "")
        assert err.splitlines() == [
            "error: matroid file: lift mod 2 must span the same row space"]
