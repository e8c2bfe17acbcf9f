"""End-to-end verification of the optimal bound tables: equality witnesses
for s(b) and c(d) at every rank up to nine, and the exhaustive maximization
over 3-edge-connected cubic graphs per Betti number.

The witness graphs: theta, K4, K33, the Moebius ladder on four rungs, the
Petersen and Heawood graphs, F14 (Betti 7), and the generalized Petersen
graph GP(8,3) for b = 9; on the cogirth side the graphic matroids of
complete graphs, the cographic matroids of the same graphs, and R10 at rank
five. The census workers, min(jobs, CPUs, graphs) processes, return systole
values only; the classes the report names, the argmax and at b = 7 those at
F13's value for the girth-5 lemma, are the only ones labelled canonically."""

from __future__ import annotations

import os
import time
from fractions import Fraction

from .catalog import catalog
from .cubicgen import canonical_form, generate_cubic
from .errors import PreconditionError
from .exact import format_rat
from .graph import MultiGraph
from .matroid import BinaryMatroid, cographic, graphic, r10
from .optimize import C_TABLE, S_TABLE, cogirth, systole

S_WITNESSES: dict[int, str] = {
    2: "theta", 3: "k4", 4: "k33", 5: "g54", 6: "petersen", 7: "f14",
    8: "heawood", 9: "moebius_kantor",
}

EXTRA_SYSTOLES: dict[str, Fraction] = {
    "f12": Fraction(2, 7),
    "f13": Fraction(8, 27),
}

C_WITNESSES: dict[int, str] = {
    1: "graphic(k2)", 2: "graphic(k3)", 3: "graphic(k4)",
    4: "cographic(k33)", 5: "r10", 6: "cographic(petersen)",
    7: "cographic(f14)", 8: "cographic(heawood)",
    9: "cographic(moebius_kantor)",
}


def _c_witness(expr: str) -> BinaryMatroid:
    if expr == "r10":
        return r10()
    kind, name = expr[:-1].split("(")
    g = catalog(name)
    return graphic(g) if kind == "graphic" else cographic(g)


def _item(kind: str, key: str, value, expected, computed, witness,
          started: float) -> dict:
    return {
        "kind": kind, key: value,
        "expected": format_rat(expected), "computed": format_rat(computed),
        "witness": witness,
        "status": "ok" if expected == computed else "fail",
        "seconds": round(time.perf_counter() - started, 3),
    }


def _systole_value(g: MultiGraph) -> Fraction:
    return systole(g).value


def verify_tables(max_rank: int, exhaustive: bool = False, jobs: int = 1) -> dict:
    """Report with one entry per check; a 'fail' status anywhere marks the
    run failed."""
    if not 1 <= max_rank <= 9:
        raise PreconditionError("tables are established for ranks 1 to 9")
    items: list[dict] = []

    witnesses = [(1, S_TABLE[1], "single loop")]
    witnesses += [(b, S_TABLE[b], S_WITNESSES[b]) for b in range(2, max_rank + 1)]
    witnesses += [(7, expected, name) for name, expected in EXTRA_SYSTOLES.items()
                  if max_rank >= 7]
    for b, expected, name in witnesses:
        t0 = time.perf_counter()
        g = MultiGraph(1, ((0, 0),)) if b == 1 else catalog(name)
        items.append(_item("systole", "b", b, expected, systole(g).value, name, t0))

    for d in range(1, max_rank + 1):
        expr = C_WITNESSES[d]
        t0 = time.perf_counter()
        got = cogirth(_c_witness(expr)).value
        items.append(_item("cogirth", "d", d, C_TABLE[d], got, expr, t0))

    if exhaustive:
        for b in range(3, max_rank + 1):
            items.append(_exhaustive_item(b, jobs))

    return {"command": {"max_rank": max_rank, "exhaustive": exhaustive,
                        "jobs": jobs},
            "items": items,
            "ok": all(i["status"] == "ok" for i in items)}


def census(b: int, jobs: int) -> tuple[list[MultiGraph], list[Fraction]]:
    """Every 3-edge-connected cubic graph with Betti number b, in generation
    order, and the systole of each, solved in min(jobs, CPUs, graphs)
    processes."""
    graphs = list(generate_cubic(2 * b - 2, three_edge_connected=True))
    procs = min(jobs, os.cpu_count() or 1, len(graphs))
    if procs > 1:
        from multiprocessing import Pool  # loaded only when it is used
        with Pool(procs) as pool:
            return graphs, pool.map(_systole_value, graphs)
    return graphs, [_systole_value(g) for g in graphs]


def _exhaustive_item(b: int, jobs: int) -> dict:
    t0 = time.perf_counter()
    graphs, values = census(b, jobs)
    best = max(values)
    named = {best, EXTRA_SYSTOLES["f13"]} if b == 7 else {best}
    keyed = [(v, canonical_form(g)) for g, v in zip(graphs, values) if v in named]
    argmax = sorted(key for v, key in keyed if v == best)
    item = _item("exhaustive", "b", b, S_TABLE[b], best,
                 f"{len(graphs)} graphs, argmax {len(argmax)}", t0)
    item["argmax_canonical"] = argmax
    if b == 7:
        f13, f14 = canonical_form(catalog("f13")), canonical_form(catalog("f14"))
        lemma_ok = argmax == [f14] and (EXTRA_SYSTOLES["f13"], f13) in keyed
        if not lemma_ok:
            item["status"] = "fail"
        item["girth5_check"] = "ok" if lemma_ok else "fail"
    return item
