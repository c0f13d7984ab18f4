"""Lint pass enforcing the project rules determinism depends on.

The round engine and the campaign runner promise bit-identical results
for identical specs at any worker count, and the serve daemon promises
an unblocked event loop under load. Those promises rest on coding
rules no general-purpose linter knows about; this pass enforces them
over the source tree with Python's :mod:`ast` — no third-party
dependency, so it runs in tier-1 tests and CI alike.

Every rule is a :class:`~repro.analysis.flow.FlowRule`: the
single-expression L20x checks below use ``check_module``, the
flow-sensitive L3xx families (:mod:`repro.analysis.flow`) add a CFG per
function, forward abstract interpretation and per-rule lattices. A
rule scoped to packages applies when any directory component of the
file's path, or the module stem, names one of them, so findings do not
depend on the directory the lint is rooted at.

========  ==========================================================
rule      what it catches
========  ==========================================================
L200      file does not parse (reported, never raised)
L202      wall-clock reads (``time.time``, ``datetime.now``, ...)
          in the deterministic packages; simulated time comes from
          the engine clock, host profiling belongs outside.  Serve
          metrics timestamps are the documented exception — allowed
          via ``# repro-lint: disable=L202`` at the read site
L204      ``object.__setattr__`` on a frozen spec outside
          ``__post_init__`` — silent spec mutation breaks the
          spec-hash identity the plan cache keys on
L205      ``sim.run()`` without a horizon argument where the
          receiver is a simulator — an unbounded drain can hang a
          campaign point past its timeout budget
L300      blocking call (``time.sleep``, ``open``, sync
          ``http.client``, ``submit(...).result()``) reachable in an
          ``async def`` body in ``serve``/``client``
L310      RNG whose seed does not trace to SeedSequence/spec fields
L320      arithmetic/comparison/bind across unit dimensions — bytes,
          MiB-family counts, byte rates, seconds, µs, ranks
========  ==========================================================

Suppress a finding by appending ``# repro-lint: disable=L202`` to the
flagged line — comma lists (``disable=L202,L310``), family wildcards
(``disable=L3xx``), and ``disable=all`` are understood. Suppressions
are deliberate and grep-able, exactly like ``noqa``. Any finding fails
``repro lint``; there is no baseline of tolerated findings.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from ..util.errors import ConfigurationError
from .flow import Emit, FlowRule, ModuleContext, dotted_parts, run_flow_rules
from .rules_concurrency import AsyncBlockingRule
from .rules_determinism import DeterminismTaintRule
from .rules_units import UnitDimensionRule
from .violations import Report, Violation

__all__ = ["LINT_RULES", "RESTRICTED_PACKAGES", "lint_file", "lint_paths"]

#: packages whose results must be a pure function of the experiment spec
#: (the original deterministic core, plus the service/campaign layers —
#: modules like ``client.py`` match by module stem)
RESTRICTED_PACKAGES = frozenset(
    {"core", "io", "sim", "faults", "serve", "client", "campaign", "cluster"}
)

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9,\s]+)")

_WALLCLOCK_TIME = frozenset({"time", "time_ns"})
_WALLCLOCK_DATETIME = frozenset({"now", "utcnow", "today"})


def _token_matches(token: str, rule: str) -> bool:
    """One suppression token against one rule code.

    ``all`` matches everything, ``L310`` matches exactly, and ``x``/``X``
    act as digit wildcards so ``L3xx`` silences the whole family.
    """
    token = token.strip().upper()
    if not token:
        return False
    if token == "ALL":
        return True
    if token == rule:
        return True
    if "X" in token and len(token) == len(rule):
        return all(
            (t == "X" and c.isdigit()) or t == c for t, c in zip(token, rule)
        )
    return False


def _suppressed(lines: list[str], line: int, rule: str) -> bool:
    if not 1 <= line <= len(lines):
        return False
    match = _SUPPRESS_RE.search(lines[line - 1])
    if match is None:
        return False
    return any(_token_matches(tok, rule) for tok in match.group(1).split(","))


class CallRule(FlowRule):
    """The rules visible in a single call expression (L202/L204/L205)."""

    codes = {
        "L202": "wall-clock read (time.time/datetime.now) in deterministic "
        "packages",
        "L204": "object.__setattr__ on frozen spec outside __post_init__",
        "L205": "simulator .run() without a bounded horizon",
    }

    def check_module(self, ctx: ModuleContext, tree: ast.Module, emit: Emit) -> None:
        wallclock = ctx.in_packages(RESTRICTED_PACKAGES)
        for node, enclosing in _calls_by_function(tree, "<module>"):
            chain = dotted_parts(node.func)
            if chain is None:
                continue
            if wallclock:
                _check_wallclock(node, chain, emit)
            _check_setattr(node, chain, enclosing, emit)
            _check_sim_run(node, chain, emit)


def _calls_by_function(
    node: ast.AST, enclosing: str
) -> Iterator[tuple[ast.Call, str]]:
    """Every call under ``node`` (pre-order) with its enclosing def's name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls_by_function(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield child, enclosing
        yield from _calls_by_function(child, enclosing)


def _check_wallclock(node: ast.Call, chain: tuple[str, ...], emit: Emit) -> None:
    is_time = chain[0] == "time" and chain[-1] in _WALLCLOCK_TIME
    is_datetime = chain[-1] in _WALLCLOCK_DATETIME and any(
        part in ("datetime", "date") for part in chain[:-1]
    )
    if is_time or is_datetime:
        emit(
            "L202", node.lineno,
            f"{'.'.join(chain)}() reads the host wall clock inside a "
            "deterministic package; use the engine's simulated clock",
            call=".".join(chain),
        )


def _check_setattr(
    node: ast.Call, chain: tuple[str, ...], enclosing: str, emit: Emit
) -> None:
    if chain == ("object", "__setattr__") and enclosing != "__post_init__":
        emit(
            "L204", node.lineno,
            f"object.__setattr__ in {enclosing}() mutates a frozen spec "
            "after construction; frozen specs may only self-adjust in "
            "__post_init__",
            function=enclosing,
        )


def _check_sim_run(node: ast.Call, chain: tuple[str, ...], emit: Emit) -> None:
    if chain[-1] != "run" or len(chain) < 2 or chain[-2] not in ("sim", "simulator"):
        return
    has_horizon = bool(node.args) or any(kw.arg == "until" for kw in node.keywords)
    if not has_horizon:
        emit(
            "L205", node.lineno,
            f"{'.'.join(chain)}() drains the event queue with no horizon; "
            "pass until=<clamped horizon>",
        )


#: every rule (stateless — safe to share)
_RULES: tuple[FlowRule, ...] = (
    CallRule(),
    AsyncBlockingRule(),
    DeterminismTaintRule(),
    UnitDimensionRule(),
)

#: rule code -> one-line description (rendered by ``repro lint --rules``)
LINT_RULES: dict[str, str] = {
    "L200": "file does not parse",
    **{code: text for rule in _RULES for code, text in rule.codes.items()},
}


def _selection(rules: Iterable[str] | None) -> frozenset[str] | None:
    """``rules`` upper-cased and checked against :data:`LINT_RULES`."""
    if rules is None:
        return None
    selected = frozenset(r.strip().upper() for r in rules if r.strip())
    unknown = sorted(selected - LINT_RULES.keys())
    if unknown:
        raise ConfigurationError(
            f"unknown lint rule code(s) {', '.join(unknown)}; "
            "`repro lint --rules` lists the codes"
        )
    return selected


def lint_file(
    path: str | Path,
    *,
    root: str | Path | None = None,
    rules: Iterable[str] | None = None,
) -> list[Violation]:
    """Lint one file; returns its violations (possibly empty).

    ``rules`` selects codes (case-insensitive); an unknown code raises
    :class:`~repro.util.errors.ConfigurationError`.
    """
    selected = _selection(rules)
    path = Path(path)
    root = Path(root) if root is not None else path.parent
    try:
        rel = path.relative_to(root)
    except ValueError:
        rel = Path(path.name)
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Violation(
                rule="L200",
                message=f"file does not parse: {exc.msg}",
                file=str(rel),
                line=exc.lineno or 0,
            )
        ]
    lines = source.splitlines()
    out: list[Violation] = []

    def emit(rule: str, line: int, message: str, **detail: object) -> None:
        if _suppressed(lines, line, rule):
            return
        out.append(
            Violation(
                rule=rule,
                message=message,
                file=str(rel),
                line=line,
                detail=dict(detail),
            )
        )

    run_flow_rules(tree, ModuleContext.from_tree(tree, str(rel)), _RULES, emit)
    if selected is not None:
        out = [v for v in out if v.rule in selected]
    return sorted(out, key=lambda v: (v.file or "", v.line or 0, v.rule))


def lint_paths(
    paths: Sequence[str | Path],
    *,
    rules: Iterable[str] | None = None,
) -> Report:
    """Lint every ``.py`` file under ``paths``; returns one Report.

    Each directory argument is scanned recursively and is the root
    for display paths. Package scoping reads every directory component
    below it, so ``lint_paths(["src"])`` and ``lint_paths(["src/repro"])``
    both treat ``.../core/...`` as the deterministic ``core`` package.
    """
    _selection(rules)  # reject unknown codes before scanning anything
    report = Report(subject=", ".join(str(p) for p in paths))
    for base in paths:
        base = Path(base)
        if base.is_dir():
            files = sorted(base.rglob("*.py"))
            root: Path | None = base
        else:
            files = [base]
            root = base.parent
        for file in files:
            if "__pycache__" in file.parts:
                continue
            for violation in lint_file(file, root=root, rules=rules):
                report.add(violation)
    return report
