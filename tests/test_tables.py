from fractions import Fraction

import pytest

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
