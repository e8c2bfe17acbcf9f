"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured data (run with -s to see them; the long exhaustive runs
for Betti 8 and 9 and the large generator counts are marked slow)."""

import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import random_connected_multigraph
from oracle_cubic import KNOWN_COUNTS, labeled_connected_cubic_count
from regma.catalog import NAMED_CYCLE_MODES, catalog, named_cycle
from regma.cubicgen import automorphisms, canonical_form, generate_cubic
from regma.exact import IntMatrix, format_rat, odd_determinant_check
from regma.graph import MultiGraph, betti, girth, min_weight_cycle
from regma.involutions import six_involutions, verify_involutions
from regma.matroid import (WeightedRep, cographic, graphic, ksum_rep, r10,
                           sum1, sum2, sum3)
from regma.optimize import (S_TABLE, bound_large_girth,
                            bound_small_cycle, cogirth, systole,
                            verify_cogirth, verify_systole)
from regma.surface import embedding_systole_bound, embeds_in, verify_certificate
from regma.tables import census, verify_tables

from test_optimize import brute_force_systole


def report(criterion, detail):
    print(f"\n[PASS] acceptance {criterion}: {detail}")


SYSTOLE_TABLE = [
    ("theta", Fraction(2, 3)), ("k4", Fraction(1, 2)),
    ("k33", Fraction(4, 9)), ("g54", Fraction(3, 8)),
    ("petersen", Fraction(1, 3)), ("heawood", Fraction(2, 7)),
    ("f12", Fraction(2, 7)), ("f13", Fraction(8, 27)),
    ("f14", Fraction(3, 10)),
]


def test_criterion_1_exact_systole_values():
    times = []
    for name, expected in SYSTOLE_TABLE:
        g = catalog(name)
        t0 = time.perf_counter()
        res = systole(g)
        times.append(time.perf_counter() - t0)
        assert res.value == expected, (name, res.value)
        assert verify_systole(g, res)
        assert times[-1] < 1.0, (name, times[-1])
    report("1 (systole witnesses)",
           f"9 exact values, slowest {max(times):.2f}s")


@pytest.fixture(scope="module")
def exhaustive_small():
    """Systoles of every 3-edge-connected cubic graph for b = 3..7, as
    (graph, value) pairs."""
    return {b: list(zip(*census(b, jobs=1))) for b in range(3, 8)}


def test_criterion_2_exhaustive_b3_to_b7(exhaustive_small):
    t0 = time.perf_counter()
    for b in range(3, 8):
        values = [v for _, v in exhaustive_small[b]]
        assert max(values) == S_TABLE[b], b
    # the exhaustively computed maxima are strictly decreasing in b
    maxima = [max(v for _, v in exhaustive_small[b]) for b in range(3, 8)]
    assert all(a > b for a, b in zip(maxima, maxima[1:]))
    by_key = {canonical_form(g): v for g, v in exhaustive_small[7]}
    f13, f14 = canonical_form(catalog("f13")), canonical_form(catalog("f14"))
    argmax = [k for k, v in by_key.items() if v == Fraction(3, 10)]
    assert argmax == [f14]
    assert by_key[f13] == Fraction(8, 27)
    counts = {b: len(exhaustive_small[b]) for b in range(3, 8)}
    report("2 (exhaustive b=3..7)",
           f"maxima match s(b); graph counts {counts}; "
           f"b=7 argmax is F14 only, F13 = 8/27")


@pytest.fixture(scope="module")
def census_b9():
    """The exhaustive items b = 3..9 of one verify_tables run at two jobs,
    keyed by b, and the run's wall time."""
    t0 = time.perf_counter()
    report = verify_tables(9, exhaustive=True, jobs=2)
    items = {i["b"]: i for i in report["items"] if i["kind"] == "exhaustive"}
    return items, time.perf_counter() - t0


def census_count(item):
    return int(item["witness"].split()[0])


@pytest.mark.slow
def test_criterion_2_exhaustive_b8(census_b9):
    items, _ = census_b9
    item = items[8]
    assert item["status"] == "ok"
    assert item["computed"] == format_rat(S_TABLE[8]) == "2/7"
    assert census_count(item) == 341
    assert item["argmax_canonical"] == [canonical_form(catalog("heawood"))]
    report("2 (exhaustive b=8)", "max over 341 graphs is 2/7, attained by "
           "Heawood only")


# sha256 of the 24 argmax_canonical strings at b = 9, joined by newlines
B9_ARGMAX_SHA256 = "1789ad51c721b20e4fe515b5c591b51a93c79495a2830ead11446b019b8a503f"


@pytest.mark.slow
def test_criterion_2_exhaustive_b9(census_b9):
    items, seconds = census_b9
    item = items[9]
    assert item["status"] == "ok"
    assert item["computed"] == format_rat(S_TABLE[9]) == "1/4"
    assert census_count(item) == 2828
    kinds = item["argmax_canonical"]
    assert len(kinds) == 24
    assert canonical_form(catalog("moebius_kantor")) in kinds
    digest = hashlib.sha256("\n".join(kinds).encode()).hexdigest()
    assert digest == B9_ARGMAX_SHA256
    report("2 (exhaustive b=9)",
           f"max over 2828 graphs is 1/4, attained by 24 classes "
           f"(sha256 {digest[:12]}); census b = 3..9 took {seconds:.1f}s")


COGIRTH_CASES = (
    [("r10", lambda: r10(), Fraction(2, 5))]
    + [(f"graphic(k{d + 1})", (lambda d=d: graphic(catalog(f"k{d + 1}"))),
        Fraction(2, d + 1)) for d in range(1, 10)]
    + [("cographic(k33)", lambda: cographic(catalog("k33")), Fraction(4, 9)),
       ("cographic(f14)", lambda: cographic(catalog("f14")), Fraction(3, 10)),
       ("cographic(heawood)", lambda: cographic(catalog("heawood")), Fraction(2, 7))]
)


def test_criterion_3_cogirth_values():
    times = []
    for name, build, expected in COGIRTH_CASES:
        m = build()
        t0 = time.perf_counter()
        res = cogirth(m)
        times.append((time.perf_counter() - t0, name))
        assert res.value == expected, (name, res.value)
        assert verify_cogirth(m, res)
        assert times[-1][0] < 10.0, times[-1]
    worst = max(times)
    report("3 (cogirth witnesses)",
           f"{len(COGIRTH_CASES)} exact values, slowest {worst[1]} {worst[0]:.2f}s")


def test_criterion_4_bound_calculators(exhaustive_small):
    # displayed inequality chains
    assert bound_large_girth(4, 4, S_TABLE) == Fraction(9, 4)
    assert bound_large_girth(5, 2, S_TABLE) == Fraction(8, 3)
    assert bound_large_girth(6, 3, S_TABLE) == 3
    assert bound_large_girth(8, 6, S_TABLE) == Fraction(7, 2)
    partial = {b: S_TABLE[b] for b in range(1, 6)}
    assert bound_large_girth(10, 4, partial) == 4
    assert bound_small_cycle(10, 3, 2, S_TABLE) == Fraction(2, 3) + Fraction(7, 2)
    assert bound_small_cycle(9, 3, 3, S_TABLE) == 1 + 3
    checked = 0
    for b in range(3, 8):
        for g, value in exhaustive_small[b]:
            inv = 1 / value
            gg = girth(g)
            assert inv >= bound_large_girth(b, gg, S_TABLE), (b, gg)
            for h in range(1, min(gg, b - 1) + 1):
                assert inv >= bound_small_cycle(b, gg, h, S_TABLE)
                checked += 1
    report("4 (bound calculators)",
           f"paper chains reproduced; {checked} bound checks on computed systoles")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(5150)
    t0 = time.perf_counter()
    for i in range(500):
        g = random_connected_multigraph(rng, max_edges=18, max_betti=10)
        res = systole(g)
        assert res.value == brute_force_systole(g), g
        assert cogirth(cographic(g)).value == res.value, g
    report("5 (oracle equivalence)",
           f"500 random multigraphs in {time.perf_counter() - t0:.0f}s")


def test_criterion_6_duality_and_regularity():
    m = r10()
    swap = {i: (i + 5) % 10 for i in range(10)}
    for s in combinations(range(10), 5):
        comp = tuple(sorted(swap[i] for i in set(range(10)) - set(s)))
        # both sides have m.rank elements: each is a basis iff it has full rank
        assert (m.subset_rank(s) == m.rank) == (m.subset_rank(comp) == m.rank)
    rng = random.Random(66)
    for _ in range(20):
        g = random_connected_multigraph(rng, max_edges=10)
        mg, mc = graphic(g), cographic(g)
        for s in combinations(range(g.m), mg.rank):
            comp = tuple(sorted(set(range(g.m)) - set(s)))
            assert (mg.subset_rank(s) == mg.rank) == (mc.subset_rank(comp) == mc.rank)
    lifts = {
        "graphic(k4)": graphic(catalog("k4")).lift,
        "graphic(k7)": graphic(catalog("k7")).lift,
        "graphic(petersen)": graphic(catalog("petersen")).lift,
        "cographic(k33)": cographic(catalog("k33")).lift,
        "cographic(petersen)": cographic(catalog("petersen")).lift,
        "cographic(f14)": cographic(catalog("f14")).lift,
        "r10": r10().lift,
    }
    k4 = graphic(catalog("k4"))
    k5 = graphic(catalog("k5"))
    lifts["2-sum"] = ksum_rep(WeightedRep.uniform(k4.lift),
                              WeightedRep.uniform(k5.lift), 2, (0, 0)).h
    lifts["1-sum"] = ksum_rep(WeightedRep.uniform(k4.lift),
                              WeightedRep.uniform(k4.lift), 1).h
    tri = ("e0", "e4", "e1")
    s3 = sum3(k5, tri, k5, tri)
    lifts["3-sum"] = s3.lift
    for name, lift in lifts.items():
        assert odd_determinant_check(lift).ok, name
    fano = IntMatrix.from_rows([[1, 0, 0, 1, 1, 0, 1],
                                [0, 1, 0, 1, 0, 1, 1],
                                [0, 0, 1, 0, 1, 1, 1]])
    verdict = odd_determinant_check(fano)
    assert not verdict.ok and verdict.violation == (3, 4, 5)
    report("6 (duality and regularity)",
           f"R10 complementation x252, 20 random basis complementations, "
           f"{len(lifts)} odd-determinant lifts, Fano refuted")


def rank6_corpus():
    corpus = []
    for extra in range(7):  # K7 minus partial matchings: graphic rank 6
        k7 = catalog("k7")
        drop = set(range(0, 2 * extra, 2)) & set(range(k7.m))
        edges = tuple(e for i, e in enumerate(k7.edges) if i not in drop)
        g = MultiGraph(7, edges)
        if g.is_connected() and betti(g) >= 6:
            corpus.append((f"graphic(k7-{extra})", graphic(g)))
    for name in ("petersen", "k5", "g1"):
        g = catalog(name)
        if betti(g) == 6:
            corpus.append((f"cographic({name})", cographic(g)))
    hea = catalog("heawood")
    minor = MultiGraph(hea.n, hea.edges[:-2])  # betti-6 minor of Heawood
    assert betti(minor) == 6 and minor.is_connected()
    corpus.append(("cographic(heawood-minor)", cographic(minor)))
    # Betti-6 cubic graphs on 10 vertices give more cographic entries
    for i, g in enumerate(generate_cubic(10, three_edge_connected=True)):
        corpus.append((f"cographic(cubic10-{i})", cographic(g)))
        if len(corpus) >= 24:
            break
    k4, k5 = graphic(catalog("k4")), graphic(catalog("k5"))
    corpus.append(("sum1(r10,k2)", sum1(r10(), graphic(catalog("k2")))))
    corpus.append(("sum1(k4,k4)", sum1(k4, k4)))
    corpus.append(("sum2(k4,k5)", sum2(k4, "e0", k5, "e0")))
    corpus.append(("sum2(k5,k4)", sum2(k5, "e2", k4, "e3")))
    tri = ("e0", "e4", "e1")
    corpus.append(("sum3(k5,k5)", sum3(k5, tri, k5, tri)))
    mc33 = cographic(catalog("k33"))
    star = tuple(f"e{e}" for e, _ in catalog("k33").incidence[0])
    corpus.append(("sum3(c33,c33)", sum3(mc33, star, mc33, star)))
    corpus.append(("sum3(k5,c33)", sum3(k5, tri, mc33, star)))
    return corpus


def test_criterion_7_six_involutions():
    rng = random.Random(7777)
    corpus = rank6_corpus()
    assert len(corpus) >= 30
    t0 = time.perf_counter()
    for name, m in corpus:
        assert m.rank == 6, name
        s = six_involutions(m)
        assert len(set(s.vs)) == 6 and min(s.counts) >= 4, name
        for _ in range(100):
            mult = [Fraction(rng.randint(0, 9)) for _ in range(m.size)]
            if not any(mult):
                continue
            ok, ksum, bound = verify_involutions(m, mult, s)
            assert ok, (name, mult)
    report("7 (six involutions)",
           f"{len(corpus)} rank-6 matroids x100 multiplicity vectors "
           f"in {time.perf_counter() - t0:.0f}s")


def test_criterion_8_embedding_certificates():
    t0 = time.perf_counter()
    done = []
    for name, chi, orientable in (("k33", 1, False), ("petersen", 1, False)):
        g = catalog(name)
        cert = embeds_in(g, chi, orientable)
        assert cert is not None and cert.chi >= chi
        assert verify_certificate(g, cert)
        done.append(name)
    hea = catalog("heawood")
    hexagon, _ = min_weight_cycle(hea, [1] * hea.m)
    assert len(hexagon) == 6
    cert = embeds_in(hea, 0, True, face=hexagon)
    assert cert is not None and verify_certificate(hea, cert, hexagon)
    done.append("heawood+hex")
    for cname in sorted(NAMED_CYCLE_MODES):
        g, c = named_cycle(cname)
        chi, orientable = NAMED_CYCLE_MODES[cname]
        tc = time.perf_counter()
        cert = embeds_in(g, chi, orientable, face=c)
        assert cert is not None, cname
        assert verify_certificate(g, cert, c), cname
        assert time.perf_counter() - tc < 120
        done.append(cname)
    assert embeds_in(catalog("k33"), 2, True) is None
    done.append("k33-no-sphere")
    report("8 (embedding certificates)",
           f"{len(done)} certificates verified in {time.perf_counter() - t0:.0f}s")


def test_criterion_9_embedding_bound():
    import numpy as np
    from scipy.spatial import Delaunay

    checks = 0
    for name, chi, orientable in (("k33", 1, False), ("petersen", 1, False),
                                  ("heawood", 0, True), ("f13", 0, False),
                                  ("f14", 0, False)):
        g = catalog(name)
        cert = embeds_in(g, chi, orientable)
        assert systole(g).value <= embedding_systole_bound(betti(g), cert.chi)
        checks += 1
    rng = np.random.default_rng(99)
    planar_checks = 0
    while planar_checks < 50:
        pts = rng.random((int(rng.integers(5, 10)), 2))
        tri = Delaunay(pts)
        edges = set()
        for simplex in tri.simplices:
            for a, b in combinations(sorted(simplex), 2):
                edges.add((a, b))
        g = MultiGraph(len(pts), tuple(sorted(edges)))
        if not g.is_connected() or betti(g) < 1:
            continue
        assert systole(g).value <= embedding_systole_bound(betti(g), 2)
        planar_checks += 1
    report("9 (embedding bound)",
           f"{checks} certificates + {planar_checks} random planar graphs")


def test_criterion_10_generator_completeness():
    import math

    for n in (4, 6, 8, 10):
        graphs = list(generate_cubic(n))
        assert len(graphs) == KNOWN_COUNTS[n]
        total = sum(math.factorial(n) // len(automorphisms(g)) for g in graphs)
        assert total == labeled_connected_cubic_count(n), n
    assert sum(1 for _ in generate_cubic(12)) == KNOWN_COUNTS[12]
    report("10 (generator completeness)",
           "counts 1,2,5,19,85 match; orbit sums equal the labeled "
           "pair-model counts for n <= 10")


@pytest.mark.slow
def test_criterion_10_generator_counts_large():
    got = {n: sum(1 for _ in generate_cubic(n)) for n in (14, 16)}
    assert got == {14: 509, 16: 4060}
    report("10 (generator counts, large)", f"{got}")
