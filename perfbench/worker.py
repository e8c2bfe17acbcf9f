"""One operation of a workload, in the fresh interpreter it was launched in.

Builds the inputs, notes the moment it is ready (the end of set-up), runs the
timed operation with or without the tracer, checks the results, and prints
one JSON object as its last line of output. run.py launches it; it is not
meant to be run by hand, though it can be:

    python3 perfbench/worker.py --workload witness-lp --seed 0 --op 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_regma():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import regma
    if Path(regma.__file__).resolve().parent != src / "regma":
        sys.exit(f"perfbench: imported regma from {regma.__file__}, not {src}")
    return regma


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--op", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file for the traced run's spans (.gz)")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("perfbench: refusing to run under -O; it strips the asserts "
                 "that systole() verifies its certificate with")

    _import_regma()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(workloads.labelling(args.seed, args.op))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        out, phases = wl.run(inputs)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = wl.check(inputs, out)
    for name, ok in checks:
        if not ok:
            print(f"perfbench: FAILED {args.workload} seed={args.seed} "
                  f"op={args.op}: {name}", file=sys.stderr)
    result = {"ready": ready, "wall_s": wall, "phases": phases,
              "peak_rss_mb": peak_rss_mb, "attempted": len(checks),
              "failed": sum(1 for _, ok in checks if not ok)}
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.spans:
            header = json.dumps({"workload": args.workload, "seed": args.seed,
                                 "op": args.op, "python": sys.version.split()[0],
                                 "nproc": len(os.sched_getaffinity(0))})
            tracer.dump(args.spans, header)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
