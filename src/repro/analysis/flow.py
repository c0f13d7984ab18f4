"""A small intraprocedural dataflow framework for the L3xx lint rules.

A single-expression check cannot see across assignments:
``fut = pool.submit(job); fut.result()`` looks like two innocent calls.
This module adds the pieces the lint rules (:mod:`repro.analysis.lint`)
share:

* :class:`ModuleContext` — per-module symbol information: the import
  alias table (``np`` → ``numpy``, ``sleep`` → ``time.sleep``), the
  package-scoping test, and module-level constants;
* :func:`collect_functions` — every function/method/nested function in
  a module with its qualified name and (lazily built) CFG;
* :func:`fixpoint` — a forward worklist solver over a
  :class:`~repro.analysis.cfg.CFG`: a rule provides an initial state, a
  ``join`` and a ``transfer`` over block items, and gets the stable
  block-entry states back;
* :func:`run_dataflow` — what every flow rule calls: the silent
  fixpoint solve, then one replay of ``transfer`` with emission enabled
  so findings are reported exactly once, under the fixpoint's states;
* :func:`item_exprs` — the expressions one block item evaluates.

Every lint rule subclasses :class:`FlowRule` and is orchestrated by
:func:`run_flow_rules`; the lint front end owns suppression comments
and rule selection.

States must be *values* (compared with ``==``) drawn from a finite
lattice per variable — the rules here map keys to a few string tags,
so termination follows from monotone joins; a generous iteration cap
guards against a buggy transfer regardless.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TypeVar

from .cfg import CFG, CondTest, Item, LoopIter, WithEnter, build_cfg

__all__ = [
    "Emit",
    "FlowRule",
    "FunctionUnit",
    "ModuleContext",
    "assign_target_keys",
    "collect_functions",
    "dotted_parts",
    "expr_key",
    "fixpoint",
    "item_exprs",
    "iter_calls",
    "module_unit",
    "run_dataflow",
    "run_flow_rules",
]

#: emit(rule_code, line_number, message, **detail)
Emit = Callable[..., None]

S = TypeVar("S")

#: safety cap multiplier for the worklist (lattices here are finite,
#: this only guards against a non-monotone transfer bug)
_MAX_VISITS_PER_BLOCK = 64


def dotted_parts(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``; ``None`` for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def expr_key(node: ast.expr) -> str | None:
    """A stable environment key for a name or ``self.x`` attribute."""
    if isinstance(node, ast.Name):
        return node.id
    parts = dotted_parts(node)
    if parts is not None and len(parts) <= 3:
        return ".".join(parts)
    return None


def assign_target_keys(target: ast.expr) -> list[str]:
    """Environment keys an assignment target binds (tuples flattened)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(assign_target_keys(elt))
        return out
    key = expr_key(target)
    return [key] if key is not None else []


@dataclass(slots=True)
class ModuleContext:
    """Symbol/alias information for one module under analysis.

    ``package`` is the first path component below the lint root (or
    the module stem for top-level modules); it resolves relative
    imports. Rule scoping uses :meth:`in_packages`, which does not
    depend on the root.
    """

    rel_path: str
    package: str
    module: str
    imports: dict[str, str] = field(default_factory=dict)
    constants: set[str] = field(default_factory=set)

    @classmethod
    def from_tree(cls, tree: ast.Module, rel_path: str) -> ModuleContext:
        parts = tuple(p for p in rel_path.replace("\\", "/").split("/") if p)
        stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
        package = parts[0] if len(parts) > 1 else stem
        module = ".".join((*parts[:-1], stem)) if len(parts) > 1 else stem
        ctx = cls(rel_path=rel_path, package=package, module=module)
        for stmt in tree.body:
            ctx._scan_toplevel(stmt)
        return ctx

    def _scan_toplevel(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                self.imports[bound] = target
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module is None or stmt.level:
                # Relative imports stay package-local; record the leaf
                # name so e.g. ``from .cache import PlanCache`` resolves
                # to "<package>.cache.PlanCache".
                base = self.package if stmt.level else ""
                mod = ".".join(p for p in (base, stmt.module or "") if p)
            else:
                mod = stmt.module
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                self.imports[bound] = f"{mod}.{alias.name}" if mod else alias.name
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                self._note_constant(target.id, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                self._note_constant(stmt.target.id, stmt.value)
        elif isinstance(stmt, (ast.If, ast.Try)):
            for inner in ast.iter_child_nodes(stmt):
                if isinstance(inner, ast.stmt):
                    self._scan_toplevel(inner)

    def _note_constant(self, name: str, value: ast.expr) -> None:
        if isinstance(value, ast.Constant) and isinstance(
            value.value, (int, float, str, bytes, bool)
        ):
            self.constants.add(name)

    def in_packages(self, packages: frozenset[str]) -> bool:
        """Whether any directory component or the module stem names one
        of ``packages`` — ``core/a.py`` and ``src/repro/core/a.py``,
        ``client.py`` and ``repro/client.py`` scope alike."""
        *dirs, leaf = (p for p in self.rel_path.replace("\\", "/").split("/") if p)
        stem = leaf[:-3] if leaf.endswith(".py") else leaf
        return any(part in packages for part in (*dirs, stem))

    # ------------------------------------------------------------- resolution
    def qualified(self, node: ast.expr) -> str | None:
        """The import-resolved dotted name a call target refers to.

        ``t.sleep`` under ``import time as t`` resolves to
        ``"time.sleep"``; an unimported base name passes through
        unchanged so builtins (``open``) match naturally.
        """
        parts = dotted_parts(node)
        if parts is None:
            return None
        base = self.imports.get(parts[0], parts[0])
        return ".".join((base, *parts[1:]))


@dataclass(slots=True)
class FunctionUnit:
    """One function under analysis: AST node + lazily built CFG."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str
    is_async: bool
    _cfg: CFG | None = None

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.node)
        return self._cfg

    @property
    def params(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        return names


def module_unit(tree: ast.Module) -> FunctionUnit:
    """The module's top-level statements as a pseudo-function unit.

    Module-level code is straight-line initialization; wrapping it in a
    synthetic function lets every flow rule analyze it with the same
    CFG machinery (``budget_mib = mib(16)`` at module scope must flag
    exactly like inside a function). Nested def/class statements are
    dropped — they have their own units.
    """
    template = ast.parse("def _toplevel_(): pass").body[0]
    assert isinstance(template, ast.FunctionDef)
    body = [
        stmt
        for stmt in tree.body
        if not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]
    template.body = body if body else [ast.Pass()]
    return FunctionUnit(node=template, qualname="<module>", is_async=False)


def collect_functions(tree: ast.Module) -> list[FunctionUnit]:
    """Every function/method/nested function with its qualified name."""
    units: list[FunctionUnit] = []

    def walk(body: Sequence[ast.stmt], prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{stmt.name}"
                units.append(
                    FunctionUnit(
                        node=stmt,
                        qualname=qualname,
                        is_async=isinstance(stmt, ast.AsyncFunctionDef),
                    )
                )
                walk(stmt.body, f"{qualname}.")
            elif isinstance(stmt, ast.ClassDef):
                walk(stmt.body, f"{prefix}{stmt.name}.")
            else:
                # Functions defined under if/try at any statement depth.
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.stmt):
                        walk([child], prefix)

    walk(tree.body, "")
    return units


def fixpoint(
    cfg: CFG,
    initial: S,
    transfer: Callable[[S, Item], S],
    join: Callable[[S, S], S],
) -> dict[int, S]:
    """Forward worklist solve; returns the stable entry state per block."""
    in_states: dict[int, S] = {cfg.entry_id: initial}
    order = cfg.reverse_postorder()
    position = {bid: i for i, bid in enumerate(order)}
    worklist = list(order)
    visits: dict[int, int] = {}
    while worklist:
        bid = worklist.pop(0)
        if bid not in in_states:
            continue  # unreachable so far
        visits[bid] = visits.get(bid, 0) + 1
        if visits[bid] > _MAX_VISITS_PER_BLOCK:
            continue  # non-monotone transfer guard; keep current state
        state = in_states[bid]
        for item in cfg.blocks[bid].items:
            state = transfer(state, item)
        for succ in cfg.blocks[bid].succs:
            if succ in in_states:
                merged = join(in_states[succ], state)
                if merged != in_states[succ]:
                    in_states[succ] = merged
                    if succ not in worklist:
                        worklist.append(succ)
            else:
                in_states[succ] = state
                if succ not in worklist:
                    worklist.append(succ)
        worklist.sort(key=lambda b: position.get(b, len(position)))
    return in_states


def run_dataflow(
    cfg: CFG,
    initial: S,
    transfer: Callable[[S, Item, Emit | None], S],
    join: Callable[[S, S], S],
    emit: Emit,
) -> None:
    """Solve ``transfer`` to its fixpoint, then report under it.

    ``transfer(state, item, report)`` reports only when ``report`` is
    not ``None``. The solve runs it with ``None``; a second pass then
    replays it once per block item under the stable entry states with
    ``emit``, so findings are never duplicated by the solver's repeated
    visits.
    """
    in_states = fixpoint(
        cfg, initial, lambda state, item: transfer(state, item, None), join
    )
    for bid in cfg.reverse_postorder():
        if bid not in in_states:
            continue
        state = in_states[bid]
        for item in cfg.blocks[bid].items:
            state = transfer(state, item, emit)


def item_exprs(item: Item) -> list[ast.expr]:
    """The expressions a block item evaluates at its position."""
    if isinstance(item, CondTest):
        return [item.expr]
    if isinstance(item, LoopIter):
        return [item.iter]
    if isinstance(item, WithEnter):
        return [w.context_expr for w in item.items]
    if isinstance(item, ast.stmt):
        return [
            child
            for child in ast.iter_child_nodes(item)
            if isinstance(child, ast.expr)
        ]
    return []


class FlowRule:
    """Base class for every lint rule.

    Subclasses fill :attr:`codes` (rule id → one-line description, the
    ``repro lint --rules`` catalog) and override :meth:`check_module`
    and/or :meth:`check_function`. ``relevant`` scopes the whole rule
    to :attr:`packages` via :meth:`ModuleContext.in_packages`.
    """

    codes: dict[str, str] = {}
    #: packages the rule applies to; ``None`` = every analyzed module
    packages: frozenset[str] | None = None

    def relevant(self, ctx: ModuleContext) -> bool:
        return self.packages is None or ctx.in_packages(self.packages)

    def check_module(self, ctx: ModuleContext, tree: ast.Module, emit: Emit) -> None:
        """Module-level checks (runs once per module)."""

    def check_function(
        self, ctx: ModuleContext, unit: FunctionUnit, emit: Emit
    ) -> None:
        """Per-function flow checks (runs once per function)."""


def run_flow_rules(
    tree: ast.Module,
    ctx: ModuleContext,
    rules: Sequence[FlowRule],
    emit: Emit,
) -> None:
    """Run every relevant rule over one module's functions."""
    active = [rule for rule in rules if rule.relevant(ctx)]
    if not active:
        return
    units = collect_functions(tree)
    mod_unit = module_unit(tree)
    for rule in active:
        rule.check_module(ctx, tree, emit)
        rule.check_function(ctx, mod_unit, emit)
        for unit in units:
            rule.check_function(ctx, unit, emit)


def iter_calls(node: ast.AST) -> Iterator[ast.Call]:
    """All call expressions inside ``node``, pruning nested defs.

    Nested functions/lambdas/classes get their own analysis unit, so a
    statement-level scan must not descend into them (their calls run at
    a different time, under a different CFG).
    """
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if current is not node and isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))
