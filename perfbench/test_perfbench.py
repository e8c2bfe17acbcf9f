"""Self-test of the benchmark: the correctness gate rejects wrong answers,
relabelled inputs keep their values, and the traced counts repeat exactly.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import labelling  # noqa: E402


def _worker(*args: str, hashseed: str = "0") -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _small_witness(seed: int) -> dict:
    inp = workloads.build_witness(labelling(seed, 0))
    inp["graphs"] = {"petersen": inp["graphs"]["petersen"]}
    inp["matroids"] = {k: inp["matroids"][k] for k in ("r10", "cographic(petersen)")}
    return inp


@pytest.mark.parametrize("seed", [0, 7])
def test_witness_gate_passes_on_any_labelling(seed):
    inp = _small_witness(seed)
    out, phases = workloads.run_witness(inp)
    checks = workloads.check_witness(inp, out)
    assert len(checks) == 3 and all(ok for _, ok in checks)
    assert phases["systole_s"] > 0 and phases["cogirth_s"] > 0


def test_witness_gate_rejects_wrong_value_and_exception():
    inp = _small_witness(3)
    out, _ = workloads.run_witness(inp)
    out["petersen"] = dataclasses.replace(out["petersen"], value=Fraction(1, 2))
    res, verified = out["r10"]
    out["r10"] = (RuntimeError("boom"), verified)
    failed = [name for name, ok in workloads.check_witness(inp, out) if not ok]
    assert len(failed) == 2


def test_relabel_keeps_the_graph():
    import regma
    g0 = regma.catalog("petersen")
    g, new_id = workloads.relabel(g0, labelling(11, 0))
    assert g != g0 and sorted(new_id) == list(range(g0.m))
    assert regma.canonical_form(g) == regma.canonical_form(g0)


def _small_casework(seed: int) -> dict:
    rng = labelling(seed, 0)
    inp = workloads.build_casework(rng)
    # The benchmark keeps the catalog labelling for first-hit searches;
    # their verdicts must not depend on it either.
    inp["embeds"] = [(label, workloads.relabel(g, rng)[0], chi, ori, exists)
                     for label, g, chi, ori, exists in inp["embeds"][:2]]
    inp["pinned"] = [workloads.pinned_case("f14_c10", rng)]
    inp["lifts"] = inp["lifts"][:1]
    inp["matroids"] = {"sum2(k4@e0,k5@e0)": inp["matroids"]["sum2(k4@e0,k5@e0)"]}
    return inp


@pytest.mark.parametrize("seed", [0, 5])
def test_casework_gate(seed):
    inp = _small_casework(seed)
    out, _ = workloads.run_casework(inp)
    checks = workloads.check_casework(inp, out)
    assert len(checks) == 5 and all(ok for _, ok in checks)
    label, g, chi, ori, _ = inp["embeds"][0]
    inp["embeds"][0] = (label, g, chi, ori, False)  # claim no embedding exists
    assert not workloads.check_casework(inp, out)[0][1]


def _fake_tables_report() -> dict:
    items = []
    for b in range(1, 8):
        items.append({"kind": "systole", "b": b, "witness": f"w{b}", "status": "ok",
                      "computed": str(workloads.S_VALUES[b])})
    for name, value in workloads.EXTRA_SYSTOLES.items():
        items.append({"kind": "systole", "b": 7, "witness": name, "status": "ok",
                      "computed": str(value)})
    for d in range(1, 8):
        items.append({"kind": "cogirth", "d": d, "witness": f"m{d}", "status": "ok",
                      "computed": str(workloads.C_VALUES[d])})
    import regma
    for b in range(3, 8):
        n, k = workloads.EXHAUSTIVE_COUNTS[b], workloads.ARGMAX_SIZES[b]
        items.append({"kind": "exhaustive", "b": b, "status": "ok",
                      "witness": f"{n} graphs, argmax {k}",
                      "computed": str(workloads.S_VALUES[b]),
                      "argmax_canonical": ["x"] * k})
    items[-1]["argmax_canonical"] = [regma.canonical_form(regma.catalog("f14"))]
    items[-1]["girth5_check"] = "ok"
    return {"ok": True, "items": items}


def test_tables_gate():
    report = _fake_tables_report()
    assert all(ok for _, ok in workloads.check_tables({}, {"report": report}))
    report["items"][-2]["witness"] = "13 graphs, argmax 3"  # b = 6 count off by one
    failed = [n for n, ok in workloads.check_tables({}, {"report": report}) if not ok]
    assert failed == ["exhaustive 6 13 graphs, argmax 3"]


def test_traced_counts_repeat_exactly_and_match_benchmark_json():
    a = _worker("--workload", "witness-lp", "--seed", "0", "--trace", "1", hashseed="0")
    b = _worker("--workload", "witness-lp", "--seed", "0", "--trace", "1", hashseed="123")
    assert a["failed"] == b["failed"] == 0

    def counts(r):
        t = r["trace"]
        return ({k: v["calls"] for k, v in t["layers"].items()},
                t["lp_rows_max"], t["spans"])
    assert counts(a) == counts(b)
    assert a["trace"]["layers"]["optimize.lp_max"]["calls"] == 104

    metrics = run.layer_metrics("witness-lp", b, a, host_ref=0.1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])


def test_refuses_optimized_interpreter():
    proc = subprocess.run([sys.executable, "-O", str(HERE / "run.py"),
                           "--workload", "witness-lp"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout.strip() == ""
