import multiprocessing
import os

import pytest

from regma import tables
from regma.cubicgen import canonical_form
from regma.errors import GuardExceeded, PreconditionError
from regma.graph import MultiGraph
from regma.tables import verify_tables


class TestVerifyTables:
    def test_witnesses_up_to_six(self):
        report = verify_tables(6)
        assert report["ok"]
        kinds = {(i["kind"], i.get("b", i.get("d"))) for i in report["items"]}
        assert ("systole", 6) in kinds and ("cogirth", 6) in kinds

    def test_exhaustive_small(self):
        report = verify_tables(4, exhaustive=True)
        assert report["ok"]
        ex = [i for i in report["items"] if i["kind"] == "exhaustive"]
        assert [i["b"] for i in ex] == [3, 4]
        assert ex[0]["computed"] == "1/2"

    def test_exhaustive_parallel_jobs(self):
        a = verify_tables(4, exhaustive=True, jobs=2)
        b = verify_tables(4, exhaustive=True, jobs=1)
        assert [i["computed"] for i in a["items"]] == \
            [i["computed"] for i in b["items"]]

    def test_only_named_classes_are_labelled(self, monkeypatch):
        # the argmax classes of b = 3..7, the b = 7 graphs at F13's value
        # 8/27, and the catalog's f13 and f14 for the girth-5 lemma
        calls = []

        def counting(g):
            calls.append(g)
            return canonical_form(g)

        monkeypatch.setattr(tables, "canonical_form", counting)
        report = verify_tables(7, exhaustive=True)
        assert report["ok"]
        assert len(calls) <= 10

    @pytest.mark.parametrize("cpus", [None, 1, 3])
    def test_pool_capped_at_cpus_and_graphs(self, monkeypatch, cpus):
        # a pool that records its size and maps in this process, so no
        # worker is ever started
        sizes = []

        class InProcessPool:
            def __init__(self, procs):
                sizes.append(procs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, f, xs):
                return list(map(f, xs))

        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        many = verify_tables(6, exhaustive=True, jobs=10**6)
        one = verify_tables(6, exhaustive=True, jobs=1)
        counts = [int(i["witness"].split()[0]) for i in one["items"]
                  if i["kind"] == "exhaustive"]
        assert sizes == [p for p in (min(cpus or 1, k) for k in counts) if p > 1]
        assert many["command"]["jobs"] == 10**6

        def strip(report):
            items = [{k: v for k, v in i.items() if k != "seconds"}
                     for i in report["items"]]
            return {**report, "items": items, "command": {
                k: v for k, v in report["command"].items() if k != "jobs"}}

        assert strip(many) == strip(one)

    def test_max_rank_guard(self):
        for max_rank in (10, 0, -3):
            with pytest.raises(PreconditionError):
                verify_tables(max_rank)
        with pytest.raises(PreconditionError):
            verify_tables(-3, exhaustive=True)


class TestGuardOverride:
    def test_override_lifts_guard(self, monkeypatch):
        # canonical_form is guarded at 20 vertices
        big = MultiGraph(21, tuple((i, (i + 1) % 21) for i in range(21)))
        with pytest.raises(GuardExceeded):
            canonical_form(big)
        monkeypatch.setenv("REGMA_GUARD_OVERRIDE", "1")
        assert canonical_form(big).startswith("21|")
