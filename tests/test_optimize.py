import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import oracle_lp
from oracle_cycles import enumerate_cycles
from oracle_matroid import circuits
from conftest import random_connected_multigraph
from regma import graph, optimize
from regma.catalog import catalog
from regma.errors import AcyclicGraphError, PreconditionError, VerificationError
from regma.exact import BitMatrix, scale_to_ints
from regma.graph import Cycle, MultiGraph, betti, girth, min_cycles_per_edge
from regma.matroid import (BinaryMatroid, WeightedRep, cographic, dual, graphic, r10,
                           simplify)
from regma.optimize import (C_TABLE, S_TABLE, CogirthResult, SystoleResult,
                            bound_decomposable, bound_large_girth,
                            bound_small_cycle, c_of_rep, cogirth, lp_max,
                            solve_maxmin, systole, systole_weighted,
                            verify_cogirth, verify_maxmin, verify_systole)
from regma.serialize import parse_matroid_expr

ONE = Fraction(1)


def brute_force_systole(g):
    """Independent route: one LP over the full enumerated cycle set."""
    cycles = enumerate_cycles(g)
    m = g.m
    obj = [Fraction(0)] * m + [ONE]
    eq = [([ONE] * m + [Fraction(0)], ONE)]
    ub = []
    for c in cycles:
        row = [Fraction(0)] * (m + 1)
        for e in c.edge_ids:
            row[e] = Fraction(-1)
        row[m] = ONE
        ub.append((row, Fraction(0)))
    sol = oracle_lp.lp_max(obj, eq, ub)
    assert sol.status == "optimal"
    return sol.value


def random_family(rng, n=None):
    """Rows of a max-min LP on n <= 6 items (n drawn unless given): random
    subsets, with repeated rows, singletons and the full set mixed in, so
    that Bland's rule meets ratio ties."""
    n = n or rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(1, 9)):
        kind = rng.random()
        if rows and kind < 0.2:
            rows.append(rng.choice(rows))
        elif kind < 0.35:
            rows.append(frozenset({rng.randrange(n)}))
        elif kind < 0.45:
            rows.append(frozenset(range(n)))
        else:
            rows.append(frozenset(i for i in range(n) if rng.random() < 0.5)
                        or frozenset({rng.randrange(n)}))
    return n, rows


def as_fractions(got):
    """lp_max's (lam, t, duals, d), integer numerators over d > 0, as the
    Fractions (lam, t, duals)."""
    lam, t, duals, d = got
    assert all(type(x) is int for x in (*lam, t, *duals, d)) and d > 0
    return (tuple(Fraction(x, d) for x in lam), Fraction(t, d),
            tuple(Fraction(y, d) for y in duals))


def assert_same_solution(n, rows, got):
    """lp_max(n, rows, []) equals the general two-phase oracle on the same LP:
    maximise t subject to sum lam = 1 and t - lam(S) <= 0 for each row."""
    eq = [([ONE] * n + [0], ONE)]
    ub = [([-1 if i in s else 0 for i in range(n)] + [1], 0) for s in rows]
    want = oracle_lp.lp_max([0] * n + [1], eq, ub)
    assert want.status == "optimal"
    want = (want.primal[:n], want.value, want.dual_ub)
    got = as_fractions(got)
    assert got == want and repr(got) == repr(want), (n, rows)


class TestLP:
    def test_theta_lp(self):
        theta = MultiGraph(2, ((0, 1), (0, 1), (0, 1)))
        assert brute_force_systole(theta) == Fraction(2, 3)

    def test_random_against_scipy(self, rng):
        # the value agrees with HiGHS, and the duals form a distribution over
        # rows whose largest load on an item is the value
        from scipy.optimize import linprog

        for trial in range(60):
            n, rows = random_family(rng)
            lam, t, duals = as_fractions(lp_max(n, rows, []))
            res = linprog([0] * n + [-1],
                          A_ub=[[-1 if i in s else 0 for i in range(n)] + [1] for s in rows],
                          b_ub=[0] * len(rows), A_eq=[[1] * n + [0]], b_eq=[1],
                          bounds=[(0, None)] * (n + 1), method="highs")
            assert res.status == 0
            assert abs(float(t) + res.fun) < 1e-7
            assert all(x >= 0 for x in lam) and sum(lam) == 1
            assert all(y >= 0 for y in duals) and sum(duals) == 1
            load = [sum(y for s, y in zip(rows, duals) if i in s) for i in range(n)]
            assert max(load) == t
            assert min(sum(lam[i] for i in s) for s in rows) == t


class TestLPOracle:
    """lp_max makes the Fraction tableau's phase-2 pivots from the basis its
    phase 1 reaches, so weights, value and row duals equal the oracle's."""

    def test_random_lps(self):
        rng = random.Random(6060)
        seen = Counter()
        for _ in range(2500):
            n, rows = random_family(rng)
            assert_same_solution(n, rows, lp_max(n, rows, []))
            seen["repeated"] += len(set(rows)) < len(rows)
            seen["singleton"] += any(len(s) == 1 for s in rows)
            seen["full"] += frozenset(range(n)) in rows
        assert min(seen.values()) >= 500

    @staticmethod
    def issued_lps(monkeypatch, solves):
        """Every LP that the (solver, argument) pairs issue, recorded through
        a wrapper that forwards the solver's trail, and each checked against
        the oracle and against a cold solve of the same rows."""
        issued = []

        def record(n, ub, trail):
            got = lp_max(n, ub, trail)
            issued.append((n, list(ub), got))
            return got

        monkeypatch.setattr(optimize, "lp_max", record)
        for solve, arg in solves:
            solve(arg)
        for n, rows, got in issued:
            assert_same_solution(n, rows, got)
            cold = lp_max(n, rows, [])
            assert got == cold and repr(got) == repr(cold), (n, rows)
        return issued

    def test_lps_of_the_solvers(self, monkeypatch):
        issued = self.issued_lps(monkeypatch, [
            (systole, catalog("petersen")), (systole, catalog("f14")),
            (systole, catalog("heawood")), (cogirth, r10()),
            (cogirth, cographic(catalog("petersen"))),
            (cogirth, cographic(catalog("heawood")))])
        assert len(issued) > 50 and max(len(rows) for _, rows, _ in issued) == 37

    @pytest.mark.slow
    def test_lps_of_the_largest_witness(self, monkeypatch):
        issued = self.issued_lps(monkeypatch, [
            (systole, catalog("moebius_kantor")),
            (cogirth, cographic(catalog("moebius_kantor")))])
        assert len(issued) == 32 and max(len(rows) for _, rows, _ in issued) == 42


def unpack(row, n):
    """The n + 1 signed slots of a packed tableau row, read off low slot
    first: the inverse of optimize._pack at the width of an LP on n items."""
    width = optimize._width(n)
    slots = []
    for _ in range(n + 1):
        x = row & ((1 << width) - 1)
        if x >> (width - 1):
            x -= 1 << width
        slots.append(x)
        row = (row - x) >> width
    assert row == 0
    return slots


def assert_packed(n, trail):
    """Every slot of every tableau that lp_max kept on n items, and of every
    pivot row it recorded, lies strictly inside the signed slot, and
    packing the slots gives the row back."""
    width = optimize._width(n)
    rows = [row for tab, _, _, _ in trail[3].values() for row in tab]
    rows += [pr for _, pr, _ in trail[2]]
    for row in rows:
        slots = unpack(row, n)
        assert all(-(1 << width - 1) < x < 1 << width - 1 for x in slots), (n, slots)
        assert optimize._pack(slots, width) == row


def count_pivots(monkeypatch):
    """A Counter of the pivots lp_max makes on its whole tableau, through a
    wrapper of optimize._eliminate. Carrying new rows along a recorded path
    eliminates rows without the pivot row among them (leave is None), and
    is not counted."""
    count = Counter()
    eliminate = optimize._eliminate

    def counted(rows, col, pr, p, at, d, leave):
        count["pivots"] += leave is not None
        return eliminate(rows, col, pr, p, at, d, leave)

    monkeypatch.setattr(optimize, "_eliminate", counted)
    return count


class TestLPTrail:
    """With the trail of the previous round, lp_max takes up that round's
    pivot path; every result equals the cold solve's, down to repr, and so
    does the trail it leaves."""

    @staticmethod
    def grow(n, batches, count):
        """Solve after each batch of rows with one trail, check each result
        and the trail (every pivot, and every kept tableau with its cols and
        basis, which the next round resumes from) against the cold solve's,
        and return the (warm, cold) pivots of each round."""
        rows, trail, made = [], [], []
        for batch in batches:
            rows += batch
            before = count["pivots"]
            warm = lp_max(n, rows, trail)
            middle = count["pivots"]
            cold_trail = []
            cold = lp_max(n, rows, cold_trail)
            assert warm == cold and repr(warm) == repr(cold), (n, rows)
            assert trail == cold_trail, (n, rows)
            assert_packed(n, trail)
            made.append((middle - before, count["pivots"] - middle))
        return made, trail

    def test_random_growing_families(self, monkeypatch):
        # one batch is the full set and a copy of a first-batch row, which
        # the optimum satisfies (both weigh at least t): the replay reaches
        # the end of the old path and makes no pivot
        count = count_pivots(monkeypatch)
        rng = random.Random(2424)
        for _ in range(600):
            n, first = random_family(rng)
            batches = [first] + [random_family(rng, n)[1] for _ in range(rng.randint(2, 5))]
            satisfied = rng.randrange(1, len(batches))
            batches[satisfied] = [frozenset(range(n)), rng.choice(first)]
            made, _ = self.grow(n, batches, count)
            assert made[satisfied][0] == 0

    def test_new_row_wins_at_step_zero(self, monkeypatch):
        # the first pivot brings in t; every old row holds item 0, so its
        # ratio is 1, and {1} wins with ratio 0: the solve starts over, and
        # the first recorded pivot row is {1}'s starting row
        count = count_pivots(monkeypatch)
        F = frozenset
        made, trail = self.grow(3, [[F({0, 1}), F({0, 2})], [F({1})]], count)
        assert made == [(1, 1), (2, 2)] and unpack(trail[2][0][1], 3) == [-1, 0, 1, 0]

    def test_ratio_tie_goes_to_the_old_row(self, monkeypatch):
        # {1, 2} and the new {1} tie at ratio 0 in the first pivot; the old
        # row's slack is the smaller variable, so it leaves, and the path
        # runs on to the old optimum (0, 1, 0), which {1} does not cut; the
        # first recorded pivot row is {1, 2}'s starting row
        count = count_pivots(monkeypatch)
        F = frozenset
        made, trail = self.grow(3, [[F({1, 2})], [F({1})]], count)
        assert made == [(2, 2), (0, 2)] and unpack(trail[2][0][1], 3) == [-1, -1, 1, 0]

    def test_trail_of_another_lp_rejected(self):
        rows = [frozenset({0, 1}), frozenset({1, 2})]
        trail = []
        lp_max(3, rows, trail)
        for n, ub in [(4, rows), (3, rows[::-1]), (3, rows[:1]),
                      (3, [frozenset({0, 2}), *rows])]:
            with pytest.raises(PreconditionError):
                lp_max(n, ub, list(trail))

    def test_pivot_twice_restores_the_tableau(self):
        # on every tableau the random LPs keep, a second pivot on the same
        # entry gives back every row, and the first pivot's entry becomes
        # the old divisor, so the divisor comes back too
        rng = random.Random(77)
        checked = 0
        for _ in range(300):
            n, rows = random_family(rng)
            trail = []
            lp_max(n, rows, trail)
            width = optimize._width(n)
            for tab, d, _, _ in trail[3].values():
                slots = [unpack(row, n) for row in tab]
                for r, c in itertools.product(range(len(tab) - 1), range(n)):
                    p = slots[r][c]
                    if p:
                        col = [row[c] for row in slots]
                        once = optimize._eliminate(tab, col, tab[r], p, width * c, d, r)
                        assert unpack(once[r], n)[c] == d
                        col = [unpack(row, n)[c] for row in once]
                        assert optimize._eliminate(once, col, once[r], d, width * c, p, r) == tab
                        checked += 1
        assert checked > 2000

    def test_width_exceeds_hadamard(self):
        # a tableau entry is a minor of order at most n + 2 of a 0/±1
        # matrix, so at most (n + 2)^((n+2)/2) in size: 2^(K-1) exceeds
        # that bound, and one bit less would not
        for n in range(1, 201):
            k = optimize._width(n)
            assert 4 ** (k - 1) > (n + 2) ** (n + 2) >= 4 ** (k - 2), n

    def test_wide_slots(self, monkeypatch):
        # every benchmark LP has n <= 24 and fits 64-bit slots; these need
        # wider ones, and equal the oracle and their cold solves all the same
        count = count_pivots(monkeypatch)
        rng = random.Random(2540)
        for _ in range(40):
            n = rng.randint(25, 40)
            assert optimize._width(n) > 64
            batches = [random_family(rng, n)[1] for _ in range(3)]
            self.grow(n, batches, count)
            rows = [s for batch in batches for s in batch]
            assert_same_solution(n, rows, lp_max(n, rows, []))

    def test_pivot_counts(self, monkeypatch):
        # deterministic work: the pivots of the solvers' LPs along their
        # trails, then of the same LPs solved cold
        count = count_pivots(monkeypatch)
        issued = []

        def record(n, ub, trail):
            issued.append((n, list(ub)))
            return lp_max(n, ub, trail)

        monkeypatch.setattr(optimize, "lp_max", record)
        systole(catalog("heawood"))
        cogirth(cographic(catalog("heawood")))
        warm = count["pivots"]
        for n, rows in issued:
            lp_max(n, rows, [])
        assert (len(issued), warm, count["pivots"] - warm) == (28, 282, 578)


def count_scaling(monkeypatch):
    """A Counter of the calls of scale_to_ints and check_weights, through
    wrappers installed wherever graph and optimize bind them."""
    count = Counter()

    def counted(fn):
        def wrapper(*args):
            count[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for fn in (scale_to_ints, graph.check_weights):
        for module in (graph, optimize):
            if hasattr(module, fn.__name__):
                monkeypatch.setattr(module, fn.__name__, counted(fn))
    return count


class TestSystole:
    @pytest.mark.parametrize("name,value", [
        ("theta", Fraction(2, 3)), ("k4", Fraction(1, 2)),
        ("k33", Fraction(4, 9)), ("g54", Fraction(3, 8)),
        ("petersen", Fraction(1, 3)),
    ])
    def test_table_values(self, name, value):
        res = systole(catalog(name))
        assert res.value == value
        assert verify_systole(catalog(name), res)

    def test_f13(self):
        assert systole(catalog("f13")).value == Fraction(8, 27)

    @pytest.mark.parametrize("rungs,value", [
        (10, Fraction(9, 50)), (12, Fraction(11, 72)), (13, Fraction(24, 169)),
    ])
    def test_wide_slot_ladders(self, rungs, value):
        # m = 30, 36, 39 edges: the LP's slots are wider than 64 bits
        g = catalog(f"moebius_ladder{rungs}")
        assert optimize._width(g.m) > 64
        res = systole(g)
        assert res.value == value and verify_systole(g, res)

    def test_forest_rejected(self):
        with pytest.raises(AcyclicGraphError):
            systole(MultiGraph(3, ((0, 1), (1, 2))))

    def test_forest_certificate_fails(self):
        # a forest has no systole, so no certificate for it verifies
        res = SystoleResult(ONE, (ONE,), (), ())
        assert verify_systole(MultiGraph(2, ((0, 1),)), res) is False

    def test_weighted(self, petersen, heawood):
        v, _ = systole_weighted(petersen, [ONE] * 15)
        assert v == Fraction(1, 3)
        v, _ = systole_weighted(heawood, [ONE] * 21)
        assert v == Fraction(2, 7)

    def test_weighted_f14(self):
        f14 = catalog("f14")
        lam = Fraction(1, 10)
        mu = Fraction(1, 20)
        w = [Fraction(0)] * 18
        for e, (u, v) in enumerate(f14.edges):
            w[e] = lam if {u, v} in ({8, 9}, {10, 11}) else mu
        assert sum(w) == 1
        v, _ = systole_weighted(f14, w)
        assert v == Fraction(3, 10)

    def test_matches_brute_force_on_random_graphs(self, rng):
        for _ in range(15):
            g = random_connected_multigraph(rng, max_edges=14)
            assert systole(g).value == brute_force_systole(g)

    def test_certificates_are_checkable(self, rng):
        g = random_connected_multigraph(rng, max_edges=12)
        res = systole(g)
        assert verify_systole(g, res)
        assert sum(y for _, y in res.dual_dist) == 1

    def test_checker_does_not_trust_the_cycle_oracle(self, monkeypatch):
        # theta plus a loop has systole 2/5. An oracle that reports, for the
        # loop, a heavier cycle of the theta never lets the loop join the LP,
        # so the cutting planes stop at the theta's 2/3 with the loop at
        # weight 0; a checker that asked the same oracle would agree.
        # verify_systole's own minimum sees the loop and rejects the result
        g = MultiGraph(2, ((0, 1), (0, 1), (0, 1), (0, 0)))
        assert systole(g).value == Fraction(2, 5)

        def heavier(g, iw):
            out = min_cycles_per_edge(g, iw)
            out[3] = (out[3][0] + 10 * sum(iw), out[0][1])
            return out

        monkeypatch.setattr(graph, "min_cycles_per_edge", heavier)
        monkeypatch.setattr(optimize, "min_cycles_per_edge", heavier)
        with pytest.raises(VerificationError, match="certificate failed"):
            systole(g)

    @pytest.mark.parametrize("name,lps,oracle_calls", [
        ("petersen", 7, 23), ("f14", 5, 24), ("heawood", 6, 28),
        ("moebius_kantor", 10, 35),
    ])
    def test_round_counts(self, monkeypatch, name, lps, oracle_calls):
        # one LP per cutting-plane round; the oracle runs once per round
        # and once per seed search (1 + m of them), and never for the
        # checker. A change to the oracle's labels changes which rows join
        # the LP, and shows here
        counts = Counter()

        def counted(fn):
            def wrapper(*args, **kwargs):
                counts[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(optimize, "lp_max", counted(lp_max))
        oracle = counted(min_cycles_per_edge)
        monkeypatch.setattr(graph, "min_cycles_per_edge", oracle)
        monkeypatch.setattr(optimize, "min_cycles_per_edge", oracle)
        systole(catalog(name))
        assert counts == {"lp_max": lps, "min_cycles_per_edge": oracle_calls}

    @pytest.mark.parametrize("name", ["petersen", "moebius_kantor"])
    def test_scaling_only_at_the_fraction_callers(self, monkeypatch, name):
        # the seeds, the cutting-plane loop and the checker's oracle run on
        # integers: the one scaling of a systole solve is the certificate's
        # in verify_maxmin, whatever the round count, and nothing checks
        # Fraction weights
        count = count_scaling(monkeypatch)
        systole(catalog(name))
        assert count == {"scale_to_ints": 1}

    def test_weighted_scales_once(self, monkeypatch, heawood):
        # the user's weights are checked and scaled once, where they enter
        count = count_scaling(monkeypatch)
        assert systole_weighted(heawood, [Fraction(1, 21)] * 21)[0] == Fraction(2, 7)
        assert count == {"scale_to_ints": 1, "check_weights": 1}

    @pytest.mark.parametrize("solve,verify,arg", [
        ("systole", "verify_systole", "catalog('k4')"),
        ("cogirth", "verify_cogirth", "r10()"),
    ], ids=["systole", "cogirth"])
    def test_failed_certificate_raises_under_optimize(self, solve, verify, arg):
        # python -O strips asserts; the certificate check must still raise
        code = "\n".join([
            "import sys",
            "import regma.optimize as opt",
            "from regma.catalog import catalog",
            "from regma.errors import VerificationError",
            "from regma.matroid import r10",
            f"opt.{verify} = lambda x, res: False",
            "try:",
            f"    opt.{solve}({arg})",
            "except VerificationError:",
            "    sys.exit(0 if sys.flags.optimize else 3)",
            "sys.exit(1)",
        ])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


def with_columns(rank, cols):
    """The binary matroid of the given rank whose columns are the F2 masks cols."""
    rep = BitMatrix(len(cols), rank, tuple(cols)).transpose()
    return BinaryMatroid(tuple(f"e{i}" for i in range(len(cols))), rep)


class TestCogirth:
    def test_r10(self):
        res = cogirth(r10())
        assert res.value == Fraction(2, 5)
        assert verify_cogirth(r10(), res)

    @pytest.mark.parametrize("expr", ["r10", "cographic(builtin:heawood)",
                                      "graphic(builtin:k5)"])
    def test_scaling_only_in_the_checker(self, monkeypatch, expr):
        # the dual-vector walk and the checker's enumeration take integers,
        # so the one scaling of a cogirth solve is the certificate's in
        # verify_maxmin, whatever the round count
        m = parse_matroid_expr(expr)
        count = count_scaling(monkeypatch)
        cogirth(m)
        assert count == {"scale_to_ints": 1}

    @pytest.mark.parametrize("expr", ["r10", "graphic(builtin:k5)", "graphic(builtin:k33)",
                                      "cographic(builtin:petersen)", "cographic(builtin:f14)"])
    def test_deletion_monotonicity(self, expr):
        # c(M \ e) <= c(M) when e is not a coloop: M \ e has M's rank and
        # dual vectors, and an optimal weighting of M \ e extended by 0 on e
        # keeps every f_lambda(v). A loop is in no support and parallel
        # copies can merge their weights, so adding them keeps c, and so
        # does simplifying them away again
        m = parse_matroid_expr(expr)
        cols, value = m.columns, cogirth(m).value
        for e in range(m.size):
            rest = [i for i in range(m.size) if i != e]
            assert m.subset_rank(rest) == m.rank  # these matroids have no coloop
            assert cogirth(with_columns(m.rank, [cols[i] for i in rest])).value <= value
        padded = with_columns(m.rank, cols + [0, cols[0], cols[-1], cols[-1]])
        assert cogirth(padded).value == value == cogirth(simplify(padded)[0]).value

    @pytest.mark.parametrize("d", range(1, 8))
    def test_complete_graphs(self, d):
        m = graphic(catalog(f"k{d + 1}"))
        assert cogirth(m).value == Fraction(2, d + 1)

    def test_equals_systole_of_cographic(self, petersen):
        for g in (catalog("k4"), petersen, catalog("heawood")):
            assert cogirth(cographic(g)).value == systole(g).value

    @pytest.mark.parametrize("expr", ["r10", "graphic(builtin:k4)",
                                      "cographic(builtin:k33)",
                                      "cographic(builtin:petersen)"])
    def test_min_over_cocircuits(self, expr):
        # the minimum over dual vectors equals the minimum over hyperplane
        # complements, the cocircuits, listed here by brute force
        m = parse_matroid_expr(expr)
        res = cogirth(m)
        assert min(sum(res.weights[i] for i in c)
                   for c in circuits(dual(m))) == res.value

    def test_bad_witness_rejected(self):
        res = cogirth(r10())
        assert not verify_cogirth(r10(), CogirthResult(res.value, res.weights, 0b11111,
                                                       res.dual))

    def test_certificate_is_two_sided(self):
        res = cogirth(r10())
        assert sum(y for _, y in res.dual) == 1
        assert not verify_cogirth(r10(), CogirthResult(res.value, res.weights,
                                                       res.witness, ()))

    def test_forged_k4_certificate_rejected(self):
        # graphic(K4) has c = 1/2; these weights reach only 3/10, which the
        # primal side alone cannot tell from optimal
        m = graphic(catalog("k4"))
        weights = (Fraction(1, 2),) + (Fraction(1, 10),) * 5
        witness = next(v for v in range(1, 8)
                       if sum(weights[i] for i, c in enumerate(m.columns)
                              if bin(v & c).count("1") % 2) == Fraction(3, 10))
        true_dual = cogirth(m).dual
        uniform = tuple((v, Fraction(1, 7)) for v in range(1, 8))
        for dual in (true_dual, uniform, ((witness, ONE),), ()):
            forged = CogirthResult(Fraction(3, 10), weights, witness, dual)
            assert verify_cogirth(m, forged) is False

    @pytest.mark.parametrize("mask", [0, -1, 1 << 5, 1 << 9])
    def test_invalid_dual_vector_rejected(self, mask):
        res = cogirth(r10())
        bad = ((mask, res.dual[0][1]),) + res.dual[1:]
        assert verify_cogirth(r10(), CogirthResult(res.value, res.weights,
                                                   res.witness, bad)) is False
        assert verify_cogirth(r10(), CogirthResult(res.value, res.weights,
                                                   mask, res.dual)) is False


class TestVerifySystoleEdgeIds:
    """Malformed cycles in a certificate make verify_systole return False."""

    @pytest.fixture(scope="class")
    def k4res(self):
        return catalog("k4"), systole(catalog("k4"))

    @pytest.mark.parametrize("ids", [{99}, {-1}, {0, 99}, {-1, 0, 1}])
    def test_bad_ids_in_tight_cycles(self, k4res, ids):
        g, res = k4res
        bad = SystoleResult(res.value, res.weights, (Cycle(frozenset(ids)),),
                            res.dual_dist)
        assert verify_systole(g, bad) is False

    @pytest.mark.parametrize("ids", [{99}, {-1}, {0, 99}, {-1, 0, 1}])
    def test_bad_ids_in_dual(self, k4res, ids):
        g, res = k4res
        (c, y), *rest = res.dual_dist
        bad = SystoleResult(res.value, res.weights, res.tight_cycles,
                            ((Cycle(frozenset(ids)), y), *rest))
        assert verify_systole(g, bad) is False

    def test_tight_set_that_is_not_a_cycle(self, k4res):
        # a 3-edge path weighs as much as a triangle but is no cycle
        g, res = k4res
        cycles = {c.edge_ids for c in enumerate_cycles(g)}
        paths = [frozenset(s) for s in itertools.combinations(range(g.m), 3)
                 if frozenset(s) not in cycles
                 and sum(res.weights[e] for e in s) == res.value]
        assert paths
        for p in paths:
            bad = SystoleResult(res.value, res.weights, (Cycle(p),), res.dual_dist)
            assert verify_systole(g, bad) is False
            bad = SystoleResult(res.value, res.weights, res.tight_cycles,
                                res.dual_dist[:-1] + ((Cycle(p), res.dual_dist[-1][1]),))
            assert verify_systole(g, bad) is False


class TestMaxMin:
    def test_engine_on_explicit_rows(self):
        # rows {0,1}, {1,2}, {0,2}: the optimum 2/3 at uniform weights, with
        # the uniform distribution over the three rows as dual
        family = [frozenset(r) for r in ({0, 1}, {1, 2}, {0, 2})]

        def separate(lam):
            return min((sum(lam[i] for i in r), sorted(r)) for r in family)[0], family

        lam, t, tight, dual = solve_maxmin(3, family[:1], separate)
        assert t == Fraction(2, 3) and lam == (Fraction(1, 3),) * 3
        assert sorted(map(sorted, tight)) == [[0, 1], [0, 2], [1, 2]]
        assert sorted((sorted(s), y) for s, y in dual) == [
            ([0, 1], Fraction(1, 3)), ([0, 2], Fraction(1, 3)), ([1, 2], Fraction(1, 3))]
        ok = verify_maxmin(3, lam, t, lambda w: separate(w)[0], lambda s: s,
                           tight, dual)
        assert ok is True
        # a lower value, a short dual or a tight row of the wrong weight fail
        assert not verify_maxmin(3, lam, Fraction(1, 2), lambda w: separate(w)[0],
                                 lambda s: s, tight, dual)
        assert not verify_maxmin(3, lam, t, lambda w: separate(w)[0],
                                 lambda s: s, tight, dual[:2])
        assert not verify_maxmin(3, lam, t, lambda w: separate(w)[0],
                                 lambda s: s, [frozenset({0})], dual)

    def test_only_tight_rows_returned(self):
        # the seed {0,1,2} stays active but weighs 1 at the optimum 2/3
        pairs = [frozenset(r) for r in ({0, 1}, {1, 2}, {0, 2})]

        def separate(lam):
            return min(sum(lam[i] for i in r) for r in pairs), pairs

        lam, t, tight, _ = solve_maxmin(3, [frozenset({0, 1, 2})], separate)
        assert t == Fraction(2, 3)
        assert sorted(map(sorted, tight)) == [[0, 1], [0, 2], [1, 2]]

    def test_faulty_oracle_raises(self):
        family = [frozenset(r) for r in ({0, 1}, {1, 2}, {0, 2})]
        # a minimum above the LP value, and one below it with no row offered
        for faulty in (lambda lam: (Fraction(2), family), lambda lam: (Fraction(0), [])):
            with pytest.raises(VerificationError, match="no progress"):
                solve_maxmin(3, family[:1], faulty)

    def test_faulty_lp_raises_within_a_few_rounds(self, monkeypatch):
        # an LP that ignores every cut after the seeds returns the same
        # optimum again, so the oracle can only offer rows already active
        # (the engine used to grow the LP without end here)
        calls = []

        def stale(n, ub, trail):
            calls.append(len(ub))
            return lp_max(n, ub[:calls[0]], [])

        monkeypatch.setattr(optimize, "lp_max", stale)
        with pytest.raises(VerificationError, match="no progress"):
            systole(catalog("petersen"))
        assert len(calls) <= 3

    def test_empty_seeds_rejected(self):
        # the LP over no rows is unbounded; the engine needs a first row
        def separate(lam):
            raise AssertionError("no LP was solved, so nothing to separate")

        with pytest.raises(PreconditionError):
            solve_maxmin(3, [], separate)


def one_step_forgeries(weights, value):
    """The weights with the least positive amount 1/den (den their common
    denominator) moved from a positive element to the next one, each with
    the value raised by 1/den."""
    den, _ = scale_to_ints(weights)
    step = Fraction(1, den)
    for i, x in enumerate(weights):
        if x > 0:
            w = list(weights)
            w[i] -= step
            w[(i + 1) % len(w)] += step
            yield tuple(w), value + step


class TestExactCertificates:
    """The checkers scale a certificate to integers, so they take only ints
    and Fractions, and they see a change of one least unit."""

    def test_float_cogirth_certificate_rejected(self):
        m = graphic(MultiGraph(2, ((0, 1), (0, 1), (0, 1))))
        weights = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        assert verify_cogirth(m, CogirthResult(1, weights, 1, ((1, 1),))) is True
        for bad in (CogirthResult(1, (0.5, 0.25, 0.25), 1, ((1, 1),)),
                    CogirthResult(1.0, weights, 1, ((1, 1),)),
                    CogirthResult(1, weights, 1, ((1, 1.0),))):
            assert verify_cogirth(m, bad) is False

    def test_float_systole_certificate_rejected(self):
        # the 4-cycle has systole 1, so its certificate is exact in floats
        g = MultiGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        res = systole(g)
        assert res.value == 1 and verify_systole(g, res) is True
        (c, y), = res.dual_dist
        for bad in (SystoleResult(1, tuple(map(float, res.weights)), res.tight_cycles,
                                  res.dual_dist),
                    SystoleResult(1.0, res.weights, res.tight_cycles, res.dual_dist),
                    SystoleResult(1, res.weights, res.tight_cycles, ((c, float(y)),))):
            assert verify_systole(g, bad) is False

    @pytest.mark.parametrize("expr", ["r10", "cographic(builtin:heawood)"])
    def test_one_step_cogirth_forgeries_fail(self, expr):
        m = parse_matroid_expr(expr)
        res = cogirth(m)
        forgeries = list(one_step_forgeries(res.weights, res.value))
        assert forgeries
        for w, value in forgeries:
            _, (iv, *iw) = scale_to_ints((value, *w))
            assert optimize._min_dual_vector(m.columns, iw, m.rank)[0] < iv
            forged = CogirthResult(value, w, res.witness, res.dual)
            assert verify_cogirth(m, forged) is False

    def test_one_step_systole_forgeries_fail(self, heawood):
        res = systole(heawood)
        forgeries = list(one_step_forgeries(res.weights, res.value))
        assert forgeries
        for w, value in forgeries:
            _, (iv, *iw) = scale_to_ints((value, *w))
            assert graph.min_cycle_value(heawood, iw) < iv
            forged = SystoleResult(value, w, res.tight_cycles, res.dual_dist)
            assert verify_systole(heawood, forged) is False


class TestCOfRep:
    def test_r10_uniform(self):
        value, witness = c_of_rep(WeightedRep.uniform(r10().lift))
        assert value == Fraction(2, 5)

    def test_k4_uniform(self, k4):
        value, _ = c_of_rep(WeightedRep.uniform(graphic(k4).lift))
        assert value == Fraction(1, 2)

    def test_rank_deficient_rejected(self):
        from regma.exact import IntMatrix
        from regma.errors import RankDeficientError

        with pytest.raises(RankDeficientError):
            WeightedRep.uniform(IntMatrix.from_rows([[1, 1], [1, 1]]))

    def test_rational_direction_cross_check(self, rng, k33):
        # the F2 minimum agrees with direct rational minimization over
        # primitive integer vectors of small height
        import itertools

        for m in (graphic(catalog("k4")), cographic(k33)):
            rep = WeightedRep.uniform(m.lift)
            f2_min, _ = c_of_rep(rep)
            d = m.rank
            best = None
            for v in itertools.product(range(-3, 4), repeat=d):
                if not any(v):
                    continue
                val = sum((rep.mult[i]
                           for i in range(m.size)
                           if sum(a * b for a, b in zip(v, m.lift.col(i)))),
                          Fraction(0))
                best = val if best is None else min(best, val)
            assert best == f2_min


class TestGrayKernel:
    """The solver's Gray-code walk against the checker's plain enumeration."""

    def test_matches_plain_enumeration(self):
        rng = random.Random(3000)
        for _ in range(1500):
            d = rng.randint(1, 7)
            pool = [rng.randrange(1 << d) for _ in range(3)]
            cols = [0 if rng.random() < 0.1
                    else rng.choice(pool) if rng.random() < 0.3
                    else rng.randrange(1 << d)
                    for _ in range(rng.randint(0, 12))]
            lam = [Fraction(0) if rng.random() < 0.2
                   else Fraction(rng.randint(1, 3), rng.randint(1, 4))
                   for _ in cols]
            # both sum integers; the third side sums the Fractions plainly
            fractions = min((sum((lam[i] for i in optimize._dual_support(v, cols)),
                                 Fraction(0)), v) for v in range(1, 1 << d))
            # the walk takes lam scaled to integers and returns an integer
            den, weights = scale_to_ints(lam)
            value, v = optimize._gray_min_dual_vector(cols, weights, d)
            assert type(value) is int
            assert (value, v) == optimize._min_dual_vector(cols, weights, d)
            assert (Fraction(value, den), v) == fractions

    def test_least_vector_among_ties(self):
        # columns 01 and 11 at equal weights: f(01) = 2 and f(10) = f(11) = 1;
        # the walk meets 11 before 10 and must still return the least, 10
        assert optimize._gray_min_dual_vector([1, 3], [1, 1], 2) == (1, 2)
        assert optimize._min_dual_vector([1, 3], [1, 1], 2) == (1, 2)

    def test_c_of_rep_unchanged(self, k4, k33):
        for m in (r10(), graphic(k4), cographic(k33)):
            rep = WeightedRep.uniform(m.lift)
            cols = rep.h.mod2().col_masks()
            den, mult = scale_to_ints(rep.mult)
            value, v = optimize._min_dual_vector(cols, mult, m.rank)
            assert c_of_rep(rep) == (Fraction(value, den), v)

    def test_c_of_rep_rank_zero(self):
        rep = WeightedRep.uniform(parse_matroid_expr("dual(graphic(builtin:k2))").lift)
        with pytest.raises(PreconditionError, match="rank-0"):
            c_of_rep(rep)

    def test_checker_does_not_trust_the_kernel(self, monkeypatch):
        # a kernel that only looks at the unit vectors stops the cutting
        # planes at graphic(K4)'s vertex stars (value 2/3, true value 1/2);
        # verify_cogirth enumerates on its own and rejects the result
        def wrong(cols, lam, d):
            return min((sum(lam[i] for i in optimize._dual_support(1 << k, cols)), 1 << k)
                       for k in range(d))

        monkeypatch.setattr(optimize, "_gray_min_dual_vector", wrong)
        with pytest.raises(VerificationError):
            cogirth(graphic(catalog("k4")))


class TestKsumRecursion:
    """The reciprocal cogirth of a k-sum dominates the sum of the reciprocal
    values of the quotient minors obtained by restricting the surviving
    weights to the kernel of the glued functionals."""

    @staticmethod
    def quotient_minor(rep, drop, kill):
        from regma.exact import IntMatrix, kernel_lattice_basis

        rows = [list(rep.h.col(i)) for i in kill]
        basis = kernel_lattice_basis(IntMatrix.from_rows(rows))
        keep = [j for j in range(rep.h.cols) if j not in drop]
        cols = IntMatrix.from_rows([list(rep.h.col(j)) for j in keep]).transpose()
        h = basis.transpose().mul(cols)
        return WeightedRep(h, tuple(rep.mult[j] for j in keep))

    def test_one_sum(self, k4):
        r1 = WeightedRep.uniform(graphic(k4).lift)
        r2 = WeightedRep.uniform(graphic(catalog("k5")).lift)
        from regma.matroid import ksum_rep

        out = ksum_rep(r1, r2, 1)
        assert 1 / c_of_rep(out)[0] >= 1 / c_of_rep(r1)[0] + 1 / c_of_rep(r2)[0]

    def test_two_sum(self, k4):
        from regma.matroid import ksum_rep

        r1 = WeightedRep.uniform(graphic(k4).lift)
        r2 = WeightedRep.uniform(graphic(catalog("k5")).lift)
        out = ksum_rep(r1, r2, 2, (0, 0))
        m1p = self.quotient_minor(r1, [0], [0])
        m2p = self.quotient_minor(r2, [0], [0])
        assert 1 / c_of_rep(out)[0] >= 1 / c_of_rep(m1p)[0] + 1 / c_of_rep(m2p)[0]

    def test_three_sum(self):
        from regma.matroid import ksum_rep

        k5 = graphic(catalog("k5"))
        rep = WeightedRep.uniform(k5.lift)
        tri = [0, 4, 1]
        cols = [list(rep.h.col(i)) for i in tri]
        # orient the triangle so the integer columns sum to zero
        signs = None
        for s in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)):
            if all(s[0] * a + s[1] * b + s[2] * c == 0
                   for a, b, c in zip(*cols)):
                signs = s
                break
        assert signs is not None
        from regma.exact import IntMatrix

        h = IntMatrix.from_rows(
            [[rep.h.at(i, j) * (signs[tri.index(j)] if j in tri else 1)
              for j in range(rep.h.cols)] for i in range(rep.h.rows)])
        oriented = WeightedRep(h, rep.mult)
        out = ksum_rep(oriented, oriented, 3, (tuple(tri), tuple(tri)))
        mp = self.quotient_minor(oriented, tri, tri)
        assert 1 / c_of_rep(out)[0] >= 2 / c_of_rep(mp)[0]


class TestOddTransformInvariance:
    def test_c_invariant_under_odd_moves(self, k4):
        from regma.exact import IntMatrix
        from regma.matroid import Pullback, Scale, odd_transform

        rep = WeightedRep.uniform(r10().lift)
        base, _ = c_of_rep(rep)
        scaled = odd_transform(rep, Scale((1, 3, 5, 1, 1, 7, 1, 1, 3, 1)))
        assert c_of_rep(scaled)[0] == base
        a = IntMatrix.from_rows([[1, 2, 0, 0, 0], [0, 1, 0, 0, 0],
                                 [0, 0, 1, 0, 2], [0, 0, 0, 1, 0],
                                 [0, 0, 0, 0, 1]])
        pulled = odd_transform(rep, Pullback(a))
        assert c_of_rep(pulled)[0] == base


class TestBounds:
    def test_small_cycle_paper_chains(self):
        assert bound_small_cycle(10, 3, 2, S_TABLE) == Fraction(2, 3) + Fraction(7, 2)
        assert bound_small_cycle(3, 3, 1, S_TABLE) == Fraction(1, 3) + Fraction(3, 2)

    def test_small_cycle_range(self):
        with pytest.raises(PreconditionError):
            bound_small_cycle(5, 3, 4, S_TABLE)

    def test_large_girth_paper_chains(self):
        assert bound_large_girth(6, 3, S_TABLE) == 3
        assert bound_large_girth(5, 2, S_TABLE) == Fraction(8, 3)
        partial = {b: S_TABLE[b] for b in range(1, 6)}
        assert bound_large_girth(10, 4, partial) == 4

    def test_large_girth_no_case(self):
        with pytest.raises(PreconditionError):
            bound_large_girth(2, 2, S_TABLE)

    def test_decomposable(self):
        assert bound_decomposable(6, C_TABLE) == 3
        assert bound_decomposable(9, C_TABLE) == 4
        assert bound_decomposable(4, C_TABLE) == 2
        with pytest.raises(PreconditionError):
            bound_decomposable(3, C_TABLE)

    def test_computed_systoles_respect_bounds(self):
        from regma.cubicgen import generate_cubic

        for g in generate_cubic(8, three_edge_connected=True):
            b = betti(g)
            inv = 1 / systole(g).value
            gg = girth(g)
            assert inv >= bound_large_girth(b, gg, S_TABLE)
            for h in range(1, min(gg, b - 1) + 1):
                assert inv >= bound_small_cycle(b, gg, h, S_TABLE)
