"""SARIF 2.1.0 serialization for lint reports.

GitHub code scanning ingests SARIF; emitting it from ``repro lint
--format sarif`` puts the L-series findings in the PR review UI next
to CodeQL's. Findings silenced by a ``# repro-lint: disable=`` comment
never reach the report, so every result here is a live finding.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .violations import Violation

__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "to_sarif"]

SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"

_LEVELS = {"error": "error", "warning": "warning"}


def _result(violation: Violation) -> dict[str, object]:
    out: dict[str, object] = {
        "ruleId": violation.rule,
        "level": _LEVELS.get(violation.severity, "warning"),
        "message": {"text": violation.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": (violation.file or "<unknown>").replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {"startLine": max(violation.line or 1, 1)},
                }
            }
        ],
    }
    if violation.detail:
        out["properties"] = dict(violation.detail)
    return out


def to_sarif(
    violations: Sequence[Violation],
    *,
    rules: Mapping[str, str] | None = None,
    src_root: str = "src/repro/",
) -> dict[str, object]:
    """One SARIF run for a lint invocation.

    ``rules`` maps rule code to its one-line description for the tool
    metadata.
    """
    used = {v.rule for v in violations}
    catalog = rules or {}
    rule_objs = [
        {
            "id": code,
            "shortDescription": {"text": catalog.get(code, code)},
        }
        for code in sorted(used | set(catalog))
    ]
    results = [_result(v) for v in violations]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rule_objs,
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": src_root}
                },
                "results": results,
            }
        ],
    }
