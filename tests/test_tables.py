from fractions import Fraction

import pytest

from regma.errors import GuardExceeded, PreconditionError
from regma.graph import MultiGraph, enumerate_cycles
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

    def test_max_rank_guard(self):
        for max_rank in (10, 0, -3):
            with pytest.raises(PreconditionError):
                verify_tables(max_rank)
        with pytest.raises(PreconditionError):
            verify_tables(-3, exhaustive=True)


class TestGuardOverride:
    def test_override_lifts_guard(self, monkeypatch):
        big = MultiGraph(2, tuple((0, 1) for _ in range(26)))
        with pytest.raises(GuardExceeded):
            enumerate_cycles(big)
        monkeypatch.setenv("REGMA_GUARD_OVERRIDE", "1")
        assert len(enumerate_cycles(big)) == 26 * 25 // 2
