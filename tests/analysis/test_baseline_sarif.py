"""SARIF export for `repro lint`."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import LINT_RULES, lint_paths, to_sarif
from repro.analysis.lint import Violation

REPO_ROOT = Path(__file__).resolve().parents[2]


def v(rule: str, file: str, line: int = 1, message: str = "m") -> Violation:
    return Violation(rule=rule, message=message, file=file, line=line)


class TestSarif:
    def test_minimal_document_shape(self):
        doc = to_sarif([v("L310", "core/a.py", 4, "unseeded rng")],
                       rules=LINT_RULES)
        assert doc["version"] == "2.1.0"
        assert "sarif" in doc["$schema"]
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == {
            "L200", "L202", "L204", "L205", "L300", "L310", "L320",
        }
        result = run["results"][0]
        assert result["ruleId"] == "L310"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "core/a.py"
        assert loc["region"]["startLine"] == 4

    def test_fresh_results_have_no_suppressions(self):
        doc = to_sarif([v("L300", "serve/h.py", 2)], rules=LINT_RULES)
        assert "suppressions" not in doc["runs"][0]["results"][0]

    def test_document_is_json_serialisable(self):
        report = lint_paths([REPO_ROOT / "tests" / "analysis" / "fixtures" / "l320_pos"])
        doc = to_sarif(report.violations, rules=LINT_RULES)
        text = json.dumps(doc)
        assert json.loads(text)["runs"][0]["results"]
