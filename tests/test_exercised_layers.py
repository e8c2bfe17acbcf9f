"""Every layer that `perfbench/run.py` lists in `EXERCISED` for a workload
records a call when a small input of that workload runs under the
benchmark's tracer. The traced benchmark run exits 2 when one records none,
so a change that stops calling such a layer fails here first.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import regma  # noqa: E402
from regma.catalog import NAMED_CYCLE_MODES  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _witness_input() -> dict:
    g = regma.catalog("petersen")
    return {"graphs": {"petersen": g},
            "matroids": {"r10": regma.r10(), "cographic(petersen)": regma.cographic(g)}}


def _run_tables(inp: dict):
    return {"report": regma.verify_tables(5, exhaustive=True)}, {}


def _check_tables(inp: dict, out: dict):
    return [("report ok", out["report"]["ok"] is True)]


def _casework_input() -> dict:
    """The first embedding case, the first pinned face, the first lift and
    the involutions of cographic(k5), each as the benchmark builds it."""
    name, chi, ori, exists = workloads.EMBED_CASES[0]
    kind, lift_of = workloads.LIFT_CASES[0]
    build = {"graphic": regma.graphic, "cographic": regma.cographic}
    k5 = regma.cographic(regma.catalog("k5"))
    return {"embeds": [(name, regma.catalog(name), chi, ori, exists)],
            "pinned": [workloads.pinned_case(min(NAMED_CYCLE_MODES), None)],
            "lifts": [(kind, build[kind](regma.catalog(lift_of)).lift)],
            "matroids": {"cographic(k5)": k5},
            "mults": {"cographic(k5)": [[Fraction(1)] * k5.size]}}


# workload -> (small input, run, correctness check)
SMALL = {
    "witness-lp": (_witness_input, workloads.run_witness, workloads.check_witness),
    "tables-b7": (dict, _run_tables, _check_tables),
    "casework": (_casework_input, workloads.run_casework, workloads.check_casework),
}


def test_small_inputs_cover_every_workload():
    assert set(SMALL) == set(run.EXERCISED) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_every_exercised_layer_records_a_call(workload):
    build, run_small, check = SMALL[workload]
    inp = build()
    tracer = Tracer()
    tracer.install()
    try:
        out, _ = run_small(inp)
    finally:
        tracer.uninstall()
    assert all(ok for _, ok in check(inp, out)), workload
    layers = tracer.summary()["layers"]
    missing = [name for name in run.EXERCISED[workload] if layers[name]["calls"] == 0]
    assert not missing, f"{workload}: no calls in {', '.join(missing)}"
