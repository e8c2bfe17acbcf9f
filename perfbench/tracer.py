"""Spans around the public functions of regma, installed from outside.

Each traced function is replaced, in every ``regma`` module that binds it
(the defining module, modules that from-import it, and the package
re-exports), by a wrapper that records a span: layer, start, end and the
span that was open when it began. Spans are kept in flat arrays in memory
and written out once, after the traced operation. A layer's self time is
its spans' duration minus the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from math import comb

# The layer name is "<module>.<function>" inside the regma package.
LAYERS = (
    "optimize.lp_max", "optimize.systole", "optimize.cogirth",
    "optimize.verify_systole", "optimize.verify_cogirth",
    "graph.min_cycles_per_edge", "graph.min_weight_cycle",
    "graph.is_three_edge_connected",
    "cubicgen.canonical_form", "cubicgen.generate_cubic",
    "tables.verify_tables",
    "surface.embeds_in", "surface.trace_faces",
    "exact.odd_determinant_check", "exact.det",
    "involutions.six_involutions",
)


def _lp_rows(sig: inspect.Signature, args, kwargs) -> int:
    bound = sig.bind(*args, **kwargs).arguments
    return len(bound.get("eq", ())) + len(bound.get("ub", ()))


class Tracer:
    def __init__(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # Counts taken at the same boundaries as the spans.
        self.lp_rows_max = 0
        self.embeds_found = 0
        self.odd_det_subsets = 0
        self.cubic_emitted = 0

    # -- recording --------------------------------------------------------

    def _open(self, idx: int) -> int:
        sid = len(self.start)
        self.layer.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _observer(self, name: str, fn):
        if name == "optimize.lp_max":
            sig = inspect.signature(fn)

            def observe(args, kwargs, result):
                self.lp_rows_max = max(self.lp_rows_max,
                                       _lp_rows(sig, args, kwargs))
            return observe
        if name == "surface.embeds_in":
            def observe(args, kwargs, result):
                self.embeds_found += result is not None
            return observe
        if name == "exact.odd_determinant_check":
            def observe(args, kwargs, result):
                h = args[0] if args else kwargs["h"]
                self.odd_det_subsets += comb(h.cols, h.rows)
            return observe
        return None

    def _wrap(self, idx: int, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # The span covers consumption of the generator, from the first
            # next() to exhaustion, not its creation.
            def wrapper(*args, **kwargs):
                sid = self._open(idx)
                try:
                    for item in fn(*args, **kwargs):
                        self.cubic_emitted += 1
                        yield item
                finally:
                    self._close(sid)
            return functools.wraps(fn)(wrapper)

        observe = self._observer(name, fn)

        def wrapper(*args, **kwargs):
            sid = self._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return functools.wraps(fn)(wrapper)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "regma" or key.startswith("regma.")]
        for idx, name in enumerate(LAYERS):
            modname, attr = name.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"regma.{modname}"), attr)
            wrapper = self._wrap(idx, name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per layer: calls, total_s, self_s; plus the counts and
        distributions the per-layer metrics are derived from."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        layers = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                  for name in LAYERS}
        systole_ms: list[float] = []
        embed_under_six = 0.0
        i_sys = LAYERS.index("optimize.systole")
        i_emb = LAYERS.index("surface.embeds_in")
        i_six = LAYERS.index("involutions.six_involutions")
        for i in range(n):
            rec = layers[LAYERS[self.layer[i]]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            if self.layer[i] == i_sys:
                systole_ms.append(dur[i] * 1e3)
            elif self.layer[i] == i_emb and self._has_ancestor(i, i_six):
                embed_under_six += dur[i]
        return {"layers": layers, "systole_ms": systole_ms,
                "embed_under_six_s": embed_under_six,
                "lp_rows_max": self.lp_rows_max,
                "embeds_found": self.embeds_found,
                "odd_det_subsets": self.odd_det_subsets,
                "cubic_emitted": self.cubic_emitted,
                "spans": n}

    def _has_ancestor(self, i: int, layer: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.layer[p] == layer:
                return True
            p = self.parent[p]
        return False

    def dump(self, path, header: str) -> None:
        """Write every span as a tab-separated line: id, layer, parent id,
        start, end (seconds on the perf_counter clock)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(header + "\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{LAYERS[self.layer[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\n")
