import random
import time
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from regma import exact
from regma.errors import DimensionError, RankDeficientError
import oracle_lattice
import oracle_odd_det
from oracle_lattice import smith_normal_form
from regma.exact import (IntMatrix, det, format_rat, hermite_row_form,
                         kernel_lattice_basis, odd_determinant_check,
                         parse_rat, rank_f2, rank_q, scale_to_ints)
from regma.matroid import R10_ROWS

R10 = IntMatrix.from_rows([list(r) for r in R10_ROWS])
FANO = IntMatrix.from_rows(
    [[1, 0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 1]])


def identity(n):
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


small_entries = st.integers(min_value=-9, max_value=9)


def int_matrix(rows, cols):
    return st.lists(st.lists(small_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(IntMatrix.from_rows)


class TestDet:
    def test_identity(self):
        assert det(identity(3)) == 1

    def test_diagonal(self):
        assert det(IntMatrix.from_rows([[2, 0], [0, 2]])) == 4

    def test_r10_leading_block(self):
        # the displayed matrix starts with the identity block
        assert det(R10.select_cols([0, 1, 2, 3, 4])) == 1

    def test_non_square(self):
        with pytest.raises(DimensionError):
            det(IntMatrix.from_rows([[1, 2, 3]]))

    @given(int_matrix(4, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy(self, m):
        assert det(m) == sympy.Matrix(m.to_rows()).det()

    @given(int_matrix(6, 6))
    @settings(max_examples=40, deadline=None)
    def test_det_mod2_is_f2_det(self, m):
        d = det(m)
        f2_full = rank_f2(m.mod2()) == 6
        assert (d % 2 == 1) == f2_full


class TestRanks:
    def test_zero(self):
        assert rank_q(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])) == 0

    def test_r10(self):
        assert rank_q(R10) == 5
        assert rank_f2(R10.mod2()) == 5

    def test_equal_rows(self):
        assert rank_q(IntMatrix.from_rows([[1, 2], [1, 2]])) == 1

    def test_f2_identity_and_ones(self):
        assert rank_f2(identity(6).mod2()) == 6
        ones = IntMatrix.from_rows([[1] * 3] * 3)
        assert rank_f2(ones.mod2()) == 1

    @given(int_matrix(4, 6))
    @settings(max_examples=50, deadline=None)
    def test_matches_sympy(self, m):
        assert rank_q(m) == sympy.Matrix(m.to_rows()).rank()

    @pytest.mark.parametrize("rank", [24, 11])
    def test_wide_matrix_in_well_under_a_second(self, rank):
        # exact-division elimination keeps the entries minors of m; the
        # division-free update doubled their length with every row and took
        # tens of seconds on a full-rank 24 x 90 matrix
        from sympy.polys.matrices import DomainMatrix
        from sympy import ZZ

        rng = random.Random(2490 + rank)
        basis = [[rng.choice((0, 1, -1, 2)) for _ in range(90)] for _ in range(rank)]
        coeff = [[rng.choice((0, 1, -1, 2)) for _ in range(rank)] for _ in range(24)]
        rows = basis if rank == 24 else [
            [sum(c * b[j] for c, b in zip(cs, basis)) for j in range(90)] for cs in coeff]
        m = IntMatrix.from_rows(rows)
        start = time.perf_counter()
        got = rank_q(m)
        assert time.perf_counter() - start < 0.5
        want = DomainMatrix([[ZZ(x) for x in r] for r in rows], (24, 90), ZZ).to_field().rank()
        assert got == want == rank


class TestOddDeterminant:
    def test_r10_ok(self):
        assert odd_determinant_check(R10).ok

    def test_fano_violation(self):
        verdict = odd_determinant_check(FANO)
        assert not verdict.ok
        assert verdict.violation == (3, 4, 5)
        assert verdict.determinant == -2

    def test_fano_violation_is_first_lexicographic(self):
        # independent oracle: scan all 35 subsets with sympy determinants
        from itertools import combinations

        firsts = []
        for s in combinations(range(7), 3):
            d = sympy.Matrix(FANO.select_cols(s).to_rows()).det()
            if d != 0 and d % 2 == 0:
                firsts.append(s)
        assert firsts[0] == (3, 4, 5)

    def test_network_matrix_ok(self):
        # signed incidence of K4 with a row dropped: totally unimodular
        from regma.catalog import catalog
        from regma.matroid import graphic

        lift = graphic(catalog("k4")).lift
        assert odd_determinant_check(lift).ok

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientError):
            odd_determinant_check(IntMatrix.from_rows([[1, 1], [1, 1]]))

    @given(int_matrix(3, 5))
    @settings(max_examples=40, deadline=None)
    def test_cross_formulation(self, m):
        # ok iff for every maximal subset, Q-rank full implies F2-rank full
        from itertools import combinations

        if rank_q(m) < 3:
            return
        expect_ok = True
        for s in combinations(range(5), 3):
            sub = m.select_cols(s)
            if rank_q(sub) == 3 and rank_f2(sub.mod2()) < 3:
                expect_ok = False
                break
        assert odd_determinant_check(m).ok == expect_ok


def _odd_det_verdict(check, m):
    try:
        return check(m)
    except RankDeficientError as exc:
        return ("rank deficient", str(exc))


class TestOddDeterminantOracle:
    """The basis walk against the full F2-echelon scan of
    `oracle_odd_det`: same `ok`, violation, determinant, or the same
    `RankDeficientError`."""

    ALPHABETS = ((0, 1), (-1, 0, 1), (0, 1, 2), (-2, -1, 0, 1, 2),
                 (-3, 0, 1, 2, 4))

    def test_random_matrices(self):
        rng = random.Random(13)
        kinds = {"ok": 0, "violation": 0, "rank deficient": 0}
        for _ in range(3000):
            d = rng.randint(0, 5)
            n = rng.randint(d, 9)
            alphabet = rng.choice(self.ALPHABETS)
            m = IntMatrix(d, n, tuple(rng.choice(alphabet) for _ in range(d * n)))
            got = _odd_det_verdict(odd_determinant_check, m)
            assert got == _odd_det_verdict(oracle_odd_det.odd_determinant_check, m), m
            kinds[got[0] if isinstance(got, tuple) else
                  "ok" if got.ok else "violation"] += 1
        # both verdicts are common, so a wrong prune or leaf test shows
        assert kinds["ok"] > 600 and kinds["violation"] > 1000, kinds

    def test_named_matrices(self):
        from regma.catalog import catalog
        from regma.matroid import cographic, graphic, sum2, sum3

        k5, k33 = catalog("k5"), catalog("k33")
        star = [f"e{e}" for e in k33.incidence[0]]
        tri = ["e0", "e4", "e1"]
        lifts = [FANO, R10]
        for name in ("k4", "k5", "k33", "petersen"):
            lifts += [graphic(catalog(name)).lift, cographic(catalog(name)).lift]
        lifts += [
            sum2(graphic(catalog("k4")), "e0", graphic(k5), "e0").lift,
            sum2(cographic(k33), "e0", graphic(k5), "e3").lift,
            sum3(cographic(k33), star, cographic(k33), star).lift,
            sum3(graphic(k5), tri, graphic(k5), tri).lift,
        ]
        for h in lifts:
            assert (odd_determinant_check(h)
                    == oracle_odd_det.odd_determinant_check(h)), h
        assert odd_determinant_check(FANO) == exact.OddDetVerdict(False, (3, 4, 5), -2)

    @pytest.mark.parametrize("name", ["k7", "petersen", "f14"])
    def test_one_det_per_basis(self, name, monkeypatch):
        # For a graph the bases of both lifts are its spanning trees (or
        # their complements), so the walk reaches exactly that many leaves.
        import networkx as nx
        from regma.catalog import catalog
        from regma.matroid import cographic, graphic

        g = catalog(name)
        trees = round(nx.number_of_spanning_trees(nx.MultiGraph(list(g.edges))))
        calls = []

        def counted(m):
            calls.append(m.rows)
            return det(m)

        monkeypatch.setattr(exact, "det", counted)
        for m in (graphic(g), cographic(g)):
            calls.clear()
            assert odd_determinant_check(m.lift).ok
            assert len(calls) == trees and set(calls) == {m.rank}, name


class TestSelectCols:
    M = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])

    def test_matches_row_construction(self):
        from itertools import product

        for k in range(4):
            for idx in product(range(3), repeat=k):
                want = IntMatrix.from_rows(
                    [[self.M.at(i, j) for j in idx] for i in range(3)])
                assert self.M.select_cols(idx) == want == self.M.select_cols(list(idx))
        assert self.M.select_cols([]) == IntMatrix(3, 0, ())

    @pytest.mark.parametrize("idx", [[-1], [3], [0, -3], [2, 3], [4]])
    def test_out_of_range(self, idx):
        with pytest.raises(DimensionError):
            self.M.select_cols(idx)


class TestSmith:
    def test_identity(self):
        u, d, v = smith_normal_form(identity(3))
        assert d.to_rows() == identity(3).to_rows()

    def test_example(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        u, d, v = smith_normal_form(m)
        assert [d.at(0, 0), d.at(1, 1)] == [2, 4]

    def test_zero_1x1(self):
        _, d, _ = smith_normal_form(IntMatrix.from_rows([[0]]))
        assert d.to_rows() == [[0]]

    @given(int_matrix(3, 4))
    @settings(max_examples=50, deadline=None)
    def test_decomposition_properties(self, m):
        u, d, v = smith_normal_form(m)
        assert u.mul(m).mul(v).to_rows() == d.to_rows()
        assert det(u) in (1, -1)
        assert det(v) in (1, -1)
        diag = [d.at(i, i) for i in range(min(d.rows, d.cols))]
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and (a == 0) <= (b == 0)
            if a:
                assert b % a == 0


class TestKernelLattice:
    def test_sym(self):
        assert kernel_lattice_basis(IntMatrix.from_rows([[1, -1]])).to_rows() == [[1], [1]]

    def test_saturation(self):
        # integer kernel of [2, -2] is generated by (1,1), not (2,2)
        assert kernel_lattice_basis(IntMatrix.from_rows([[2, -2]])).to_rows() == [[1], [1]]

    def test_full_rank_empty(self):
        assert kernel_lattice_basis(identity(2)).cols == 0

    @pytest.mark.parametrize("rows,cols", [(3, 0), (0, 3), (2, 3)])
    def test_transpose_keeps_shape(self, rows, cols):
        m = IntMatrix(rows, cols, tuple(range(rows * cols)))
        t = m.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert t.transpose() == m

    def test_matches_smith_oracle(self):
        # 2,000 seeded shapes up to 5 x 9, among them 0 x n and n x 0, with
        # zero entries common enough to give zero rows and columns
        rng = random.Random(1980)
        for _ in range(2000):
            rows, cols = rng.randint(0, 5), rng.randint(0, 9)
            m = IntMatrix(rows, cols, tuple(
                rng.randint(-6, 6) if rng.random() < 0.6 else 0
                for _ in range(rows * cols)))
            assert kernel_lattice_basis(m) == oracle_lattice.kernel_lattice_basis(m)

    @given(int_matrix(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_spans_integer_kernel(self, m):
        b = kernel_lattice_basis(m)
        # m . B = 0
        assert all(x == 0 for x in m.mul(b).entries)
        # every integer kernel vector in a small box is an integer
        # combination of the basis columns (solve via sympy exactly)
        import itertools

        cols = [b.col(j) for j in range(b.cols)]
        for x in itertools.product((-2, -1, 0, 1, 2), repeat=4):
            if any(sum(m.at(i, j) * x[j] for j in range(4)) for i in range(2)):
                continue
            A = sympy.Matrix([[c[i] for c in cols] for i in range(4)])
            sol = sympy.linsolve((A, sympy.Matrix(x)))
            assert sol, f"{x} not generated"
            vec = next(iter(sol))
            assert all(v.is_integer for v in vec), f"{x} not an integer combo"


class TestHermite:
    @given(int_matrix(3, 3))
    @settings(max_examples=40, deadline=None)
    def test_canonical_under_row_ops(self, m):
        # prepending a unimodular shuffle leaves the HNF unchanged
        shuffled = IntMatrix.from_rows(
            [list(m.row(2)), [a + b for a, b in zip(m.row(0), m.row(1))],
             list(m.row(1))])
        assert hermite_row_form(m).to_rows() == hermite_row_form(shuffled).to_rows()


class TestRationals:
    def test_roundtrip(self):
        assert format_rat(Fraction(3, 7)) == "3/7"
        assert format_rat(Fraction(4, 1)) == "4"
        assert parse_rat("3/7") == Fraction(3, 7)
        assert parse_rat("-5") == Fraction(-5)

    @given(st.fractions())
    @settings(max_examples=50, deadline=None)
    def test_parse_format(self, q):
        assert parse_rat(format_rat(q)) == q


class TestScaleToInts:
    def test_matches_fraction_arithmetic(self):
        # seeded mixes of ints and Fractions, and the empty list
        rng = random.Random(1717)
        assert scale_to_ints([]) == (1, [])
        for _ in range(500):
            values = [rng.randint(-9, 9) if rng.random() < 0.3
                      else Fraction(rng.randint(-40, 40), rng.randint(1, 30))
                      for _ in range(rng.randint(1, 8))]
            den, ints = scale_to_ints(values)
            assert all(type(x) is int for x in ints)
            assert ints == [x * den for x in values]
            assert den == lcm(*(Fraction(v).denominator for v in values))
