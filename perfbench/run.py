"""Cold-process benchmark of regma's certified solves.

    python3 perfbench/run.py --workload witness-lp --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is the checkout's src/.
Every operation runs in a fresh interpreter (perfbench/worker.py), as every
CLI call does, so cold caches are paid each time. With --trace 0 the
operations repeat until --seconds have passed (the last one ends after
that), and the end-to-end metrics are the medians over them. With --trace 1 one operation runs untraced and
then once more traced, and the per-layer metrics come from the traced one.
The last line of output is one JSON object; the exit code is 0 only when
every result passed its check. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("witness-lp", "tables-b7", "casework")
SETUP_SAMPLES = 15
PROBE_EVERY_S = 0.05
DEADLINE_S = 175.0

# Layers each workload exists to exercise: the traced run fails if one of
# them records no calls.
EXERCISED = {
    "witness-lp": ("optimize.lp_max", "optimize.systole", "optimize.cogirth",
                   "optimize.verify_systole", "optimize.verify_cogirth",
                   "graph.min_cycles_per_edge", "graph.min_weight_cycle"),
    "tables-b7": ("tables.verify_tables", "cubicgen.generate_cubic",
                  "cubicgen.canonical_form", "graph.is_three_edge_connected",
                  "optimize.lp_max", "optimize.systole", "optimize.cogirth",
                  "graph.min_cycles_per_edge", "graph.min_weight_cycle"),
    "casework": ("surface.embeds_in", "surface.trace_faces",
                 "exact.odd_determinant_check", "exact.det",
                 "involutions.six_involutions"),
}

PHASES = ("systole_s", "cogirth_s", "embed_s", "regularity_s", "involutions_s")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _probe() -> float:
    """Seconds taken by a fixed stdlib-only Fraction loop (about 1 ms)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 150):
        acc += Fraction(k % 7 + 1, k)
        acc *= Fraction(k, k + 1)
    return time.perf_counter() - t0


def launch(args: list[str], deadline: float, probes: list[float]) -> dict:
    """Run one worker to completion; its JSON result gains 'setup_s', the
    time from launch until its inputs were built. While it runs, the probe
    loop is timed every PROBE_EVERY_S on the other core, sampling how fast
    the host runs exact arithmetic during the operation."""
    launched = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise BenchError("worker timed out: " + " ".join(args))
            probes.append(_probe())
            time.sleep(PROBE_EVERY_S)
        out = proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: " + " ".join(args))
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - launched
    return result


def _op_args(ns, op: int, trace: int = 0) -> list[str]:
    return ["--workload", ns.workload, "--seed", str(ns.seed), "--op", str(op),
            "--trace", str(trace)]


def setup_samples(ns, results: list[dict], deadline: float,
                  probes: list[float]) -> list[float]:
    """Set-up times of the runs made, topped up with set-up-only launches."""
    setups = [r["setup_s"] for r in results]
    while len(setups) < SETUP_SAMPLES:
        setups.append(launch(_op_args(ns, 0) + ["--setup-only"], deadline,
                             probes)["setup_s"])
    return setups


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: str, base: dict, traced: dict, host_ref: float) -> dict:
    s = traced["trace"]
    L = s["layers"]
    missing = [name for name in EXERCISED[workload] if L[name]["calls"] == 0]
    if missing:
        raise BenchError(f"traced {workload} recorded no calls in " + ", ".join(missing))
    sys_ms = sorted(s["systole_ms"])
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def per_layer(layer, *fields):
        for f in fields:
            put(f"{layer}.{f}", L[layer][f], "count" if f == "calls" else "s")

    per_layer("optimize.lp_max", "calls", "self_s")
    put("optimize.lp_max.rows_max", s["lp_rows_max"], "count")
    solves = L["optimize.systole"]["calls"] + L["optimize.cogirth"]["calls"]
    put("optimize.rounds_per_solve", _ratio(L["optimize.lp_max"]["calls"], solves), "ratio")
    per_layer("optimize.systole", "calls", "self_s")
    # Median, and the highest order statistic with ten samples above it.
    put("optimize.systole.p50_ms", statistics.median(sys_ms) if sys_ms else 0.0, "ms")
    put("optimize.systole.tail_ms", sys_ms[-11] if len(sys_ms) >= 11 else 0.0, "ms")
    per_layer("optimize.cogirth", "calls", "self_s")
    per_layer("optimize.verify_systole", "total_s")
    per_layer("optimize.verify_cogirth", "total_s")
    per_layer("graph.min_cycles_per_edge", "calls", "total_s")
    per_layer("graph.min_weight_cycle", "calls", "self_s")
    per_layer("graph.is_three_edge_connected", "calls", "total_s")
    per_layer("cubicgen.canonical_form", "calls", "total_s")
    per_layer("cubicgen.generate_cubic", "total_s")
    put("cubicgen.canonical_per_graph",
        _ratio(L["cubicgen.canonical_form"]["calls"], s["cubic_emitted"]), "ratio")
    per_layer("tables.verify_tables", "total_s")
    per_layer("surface.embeds_in", "calls", "self_s")
    put("surface.embeds_in.found_ratio",
        _ratio(s["embeds_found"], L["surface.embeds_in"]["calls"]), "ratio")
    per_layer("surface.trace_faces", "calls", "total_s")
    per_layer("exact.odd_determinant_check", "calls", "self_s")
    per_layer("exact.det", "calls", "total_s")
    put("exact.det_per_subset", _ratio(L["exact.det"]["calls"], s["odd_det_subsets"]), "ratio")
    per_layer("involutions.six_involutions", "total_s")
    put("involutions.six_involutions.embed_share",
        _ratio(s["embed_under_six_s"], L["involutions.six_involutions"]["total_s"]), "ratio")
    for phase in PHASES:  # untraced, from the run before the traced one
        put(phase, base["phases"].get(phase, 0.0), "s")
    put("bench.trace_overhead_ratio", traced["wall_s"] / base["wall_s"] - 1, "ratio")
    put("bench.host_ref_s", host_ref, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if sys.flags.optimize:
        print("perfbench: refusing to run under -O; it strips the asserts "
              "that systole() verifies its certificate with", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "regma" / "__init__.py").is_file():
        print(f"perfbench: no regma sources under {src}", file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)
    print(f"perfbench: workload={ns.workload} seed={ns.seed} seconds={ns.seconds:g} "
          f"trace={ns.trace} python={sys.version.split()[0]} "
          f"nproc={len(os.sched_getaffinity(0))} optimize={sys.flags.optimize}")

    probes: list[float] = []
    try:
        if ns.trace:
            spans = ROOT / ".bench_build" / "perfbench"
            spans.mkdir(parents=True, exist_ok=True)
            spans /= f"spans-{ns.workload}-seed{ns.seed}.tsv.gz"
            base = launch(_op_args(ns, 0), deadline, probes)
            traced = launch(_op_args(ns, 0, trace=1) + ["--spans", str(spans)],
                            deadline, probes)
            runs = [base, traced]
            metrics = layer_metrics(ns.workload, base, traced, statistics.mean(probes))
            print(f"perfbench: {traced['trace']['spans']} spans in {spans.relative_to(ROOT)}")
        else:
            runs = []
            t0 = time.monotonic()
            while not runs or time.monotonic() - t0 < ns.seconds:
                runs.append(launch(_op_args(ns, len(runs)), deadline, probes))
            setups = setup_samples(ns, runs, deadline, probes)
            metrics = {
                "wall_s": {"value": statistics.median(r["wall_s"] for r in runs), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs),
                                "unit": "MB"},
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"perfbench: {len(runs)} operations, {attempted} results checked, "
          f"{failed} failed")
    report = dict(metrics)
    if not ns.trace:
        for phase in sorted({p for r in runs for p in r["phases"]}):
            report[phase] = {"value": statistics.median(r["phases"][phase] for r in runs),
                             "unit": "s"}
        report["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
        report["bench.host_ref_s"] = {"value": statistics.mean(probes), "unit": "s"}
    for name, metric in report.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
