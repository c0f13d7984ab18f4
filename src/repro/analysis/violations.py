"""Shared result types for the static-analysis passes.

Both analysis passes — the plan verifier (:mod:`repro.analysis.verify`)
and the codebase lint (:mod:`repro.analysis.lint`) — report
:class:`Violation` records collected into a :class:`Report`. A
violation names the rule that fired (``PV1xx`` for plan invariants,
``L2xx`` for lint rules), where it fired (a domain index or a
file:line), and a human-readable message; ``detail`` carries the
machine-readable evidence (byte counts, identifier names) so CI jobs
and tests can assert on exact causes rather than on message text.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Violation", "Report"]


@dataclass(frozen=True)
class Violation:
    """One rule firing at one location."""

    rule: str  # "PV105", "L310", ...
    message: str
    severity: str = "error"  # "error" | "warning"
    file: str | None = None  # lint: repo-relative path
    line: int | None = None  # lint: 1-based line number
    domain: int | None = None  # verify: index into plan.domains
    detail: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        if self.file is not None:
            out["file"] = self.file
        if self.line is not None:
            out["line"] = self.line
        if self.domain is not None:
            out["domain"] = self.domain
        if self.detail:
            out["detail"] = dict(self.detail)
        return out

    def location(self) -> str:
        """Short source for rendered lines: file:line or domain index."""
        if self.file is not None:
            return f"{self.file}:{self.line}" if self.line is not None else self.file
        if self.domain is not None:
            return f"domain[{self.domain}]"
        return "plan"


@dataclass(slots=True)
class Report:
    """All violations one analysis pass produced over one subject."""

    subject: str  # plan path / cache key / "src/repro"
    violations: list[Violation] = field(default_factory=list)

    @property
    def errors(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == "error"]

    @property
    def warnings(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity violation fired."""
        return not self.errors

    def add(self, violation: Violation) -> None:
        self.violations.append(violation)

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.rule] = counts.get(v.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "n_errors": len(self.errors),
            "n_warnings": len(self.warnings),
            "violations": [v.to_dict() for v in self.violations],
        }

    def render(self) -> str:
        """Human-readable one-line-per-violation summary."""
        if not self.violations:
            return f"{self.subject}: clean"
        lines = [
            f"{self.subject}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        ]
        for v in self.violations:
            lines.append(
                f"  {v.severity[0].upper()} {v.rule} {v.location()}: {v.message}"
            )
        return "\n".join(lines)
