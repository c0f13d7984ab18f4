"""The L300 async-blocking rule against its committed fixture pair."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fired(root: Path) -> set[str]:
    return {v.rule for v in lint_paths([root]).violations}


def violations(root: Path):
    return lint_paths([root]).violations


class TestL300AsyncBlocking:
    def test_positive_fixture_fires_only_l300(self):
        assert fired(FIXTURES / "l300_pos") == {"L300"}

    def test_negative_fixture_is_clean(self):
        report = lint_paths([FIXTURES / "l300_neg"])
        assert report.ok, report.render()

    def test_each_blocking_shape_is_caught(self):
        msgs = "\n".join(v.message for v in violations(FIXTURES / "l300_pos"))
        assert "time.sleep" in msgs
        # chained submit(...).result() and the tracked-future variant
        assert msgs.count("result") >= 2
        # sync HTTP round-trip methods
        assert "request" in msgs or "getresponse" in msgs
        assert "open" in msgs

    def test_findings_carry_locations(self):
        for v in violations(FIXTURES / "l300_pos"):
            assert v.file.endswith("handlers.py")
            assert v.line > 0

