"""L320: unit-dimension propagation — bytes, MiB, rates, time, ranks.

A dimension lattice propagated through assignments and arithmetic.
Dimensions are assigned from three sources:

* **identifier suffixes** — ``*_bytes``, ``*_kib/_mib/_gib/_tib``,
  ``*_s/_sec/_secs/_seconds``, ``*_us``, ``*_per_s/_bps``,
  ``*_ranks`` (plus the bare ``ranks``/``nranks`` spellings);
* **known constants** — the ``KiB``/``MiB``/``GiB``/``TiB`` byte
  multipliers from :mod:`repro.util.units` (a value multiplied by one
  is a byte count);
* **known signatures** — ``kib()``/``mib()``/``gib()``/``tib()``
  return bytes, ``MB_per_s()``-family return byte rates.

Propagation rules (``?`` = unknown, which never flags):

=============================  =======================================
expression                      result
=============================  =======================================
``d + d`` / ``d - d``           ``d``; **flags** when both dims are
                                known and differ
``d < d'`` (any comparison)     **flags** when known dims differ
``d * scalar-int``              ``d``
``d * float-literal``           ``?`` (float scaling is how unit
                                conversions are written)
``mib-count * MiB``             bytes
``bytes / seconds``             rate;  ``bytes / rate`` → seconds
``rate * seconds``              bytes
``x << n`` / ``x >> n``         ``?`` (shift conversions exempt)
``mib(x)`` with x in bytes      **flags** (double conversion)
``t_mib = <bytes-valued>``      **flags** (bind across dimensions)
=============================  =======================================

Single-expression mixes fire — ``cap_mib = mib(4)``,
``a_bytes + b_mib`` — but now also across assignments:
``size = buf_bytes`` then ``size + quota_mib`` flags, which the
per-expression check could not see.
"""

from __future__ import annotations

import ast
from functools import partial

from .cfg import Item
from .flow import (
    Emit,
    FlowRule,
    FunctionUnit,
    ModuleContext,
    assign_target_keys,
    expr_key,
    item_exprs,
    run_dataflow,
)

__all__ = ["UnitDimensionRule", "dim_from_name"]

#: dimension tags; absence from the env / ``None`` means unknown
BYTES = "bytes"
MIB = "mib"  # a count in the KiB/MiB/GiB/TiB family
RATE = "rate"  # bytes per second
SECONDS = "seconds"
MICROSECONDS = "us"
RANKS = "ranks"

_Env = dict[str, str]

_MIB_SUFFIXES = ("_kib", "_mib", "_gib", "_tib")
_SECOND_SUFFIXES = ("_s", "_sec", "_secs", "_seconds")
_RATE_SUFFIXES = ("_per_s", "_bps")
_BYTE_CONSTANTS = frozenset({"KiB", "MiB", "GiB", "TiB"})
_SIZE_HELPERS = frozenset({"kib", "mib", "gib", "tib"})
_RATE_HELPERS = frozenset({"MB_per_s", "GB_per_s", "TB_per_s"})

_HUMAN = {
    BYTES: "bytes",
    MIB: "a KiB/MiB/GiB count",
    RATE: "a byte rate (B/s)",
    SECONDS: "seconds",
    MICROSECONDS: "microseconds",
    RANKS: "ranks",
}


def dim_from_name(name: str | None) -> str | None:
    """Dimension implied by an identifier's suffix, if any."""
    if name is None:
        return None
    lowered = name.lower()
    if lowered.endswith("_bytes"):
        return BYTES
    if lowered.endswith(_MIB_SUFFIXES):
        return MIB
    if lowered.endswith(_RATE_SUFFIXES):
        return RATE
    if lowered == "bandwidth" or lowered.endswith("_bandwidth"):
        return RATE  # the cost models pass bandwidths in bytes/s
    if lowered.endswith(_SECOND_SUFFIXES):
        return SECONDS
    if lowered.endswith("_us"):
        return MICROSECONDS
    if lowered.endswith("_ranks") or lowered in ("ranks", "nranks", "n_ranks"):
        return RANKS
    return None


def _terminal(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class UnitDimensionRule(FlowRule):
    """L320: cross-dimension arithmetic/comparison over tracked units."""

    codes = {"L320": "arithmetic/comparison/bind across unit dimensions"}

    def check_function(
        self, ctx: ModuleContext, unit: FunctionUnit, emit: Emit
    ) -> None:
        initial: _Env = {}
        for param in unit.params:
            dim = dim_from_name(param)
            if dim is not None:
                initial[param] = dim
        run_dataflow(
            unit.cfg, initial, partial(self._transfer, ctx), _join_env, emit
        )

    # ------------------------------------------------------------ transfer
    def _transfer(
        self,
        ctx: ModuleContext,
        env: _Env,
        item: Item,
        report: Emit | None,
    ) -> _Env:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return env
        if isinstance(item, (ast.Assign, ast.AnnAssign)):
            value = item.value
            if value is None:
                return env
            dim = self._dim_of(ctx, env, value, report)
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            env = dict(env)
            for target in targets:
                for key in assign_target_keys(target):
                    suffix_dim = dim_from_name(key.rsplit(".", 1)[-1])
                    if (
                        report is not None
                        and dim is not None
                        and suffix_dim is not None
                        and dim != suffix_dim
                    ):
                        report(
                            "L320",
                            item.lineno,
                            f"{key} = <{_HUMAN[dim]}> binds {_HUMAN[dim]} to "
                            f"a name suffixed for {_HUMAN[suffix_dim]}",
                            target=key,
                            value_dim=dim,
                            target_dim=suffix_dim,
                        )
                    env[key] = dim if dim is not None else (suffix_dim or "")
                    if env[key] == "":
                        del env[key]
            return env
        if isinstance(item, ast.AugAssign):
            key = expr_key(item.target)
            value_dim = self._dim_of(ctx, env, item.value, report)
            if key is not None:
                target_dim = env.get(key) or dim_from_name(key.rsplit(".", 1)[-1])
                if (
                    report is not None
                    and isinstance(item.op, (ast.Add, ast.Sub))
                    and target_dim is not None
                    and value_dim is not None
                    and target_dim != value_dim
                ):
                    report(
                        "L320",
                        item.lineno,
                        f"augmented {key} ({_HUMAN[target_dim]}) with "
                        f"{_HUMAN[value_dim]}",
                        target=key,
                    )
            return env
        for expr in item_exprs(item):
            self._dim_of(ctx, env, expr, report)
        return env

    # ------------------------------------------------------------ dimension
    def _dim_of(
        self,
        ctx: ModuleContext,
        env: _Env,
        expr: ast.expr,
        report: Emit | None,
    ) -> str | None:
        """Dimension of ``expr``; flags offending sub-expressions once."""
        if isinstance(expr, (ast.Name, ast.Attribute)):
            key = expr_key(expr)
            if key is not None and key in env:
                return env[key]
            terminal = _terminal(expr)
            if terminal in _BYTE_CONSTANTS:
                return BYTES
            return dim_from_name(terminal)
        if isinstance(expr, ast.Constant):
            return None
        if isinstance(expr, ast.BinOp):
            return self._dim_of_binop(ctx, env, expr, report)
        if isinstance(expr, ast.Compare):
            self._check_compare(ctx, env, expr, report)
            return None
        if isinstance(expr, ast.UnaryOp):
            return self._dim_of(ctx, env, expr.operand, report)
        if isinstance(expr, ast.Call):
            return self._dim_of_call(ctx, env, expr, report)
        if isinstance(expr, ast.IfExp):
            self._dim_of(ctx, env, expr.test, report)
            then = self._dim_of(ctx, env, expr.body, report)
            other = self._dim_of(ctx, env, expr.orelse, report)
            return then if then == other else None
        if isinstance(expr, ast.Subscript):
            self._dim_of(ctx, env, expr.slice, report)
            base = self._dim_of(ctx, env, expr.value, report)
            return base
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                self._dim_of(ctx, env, elt, report)
            return None
        if isinstance(expr, ast.Dict):
            for part in (*expr.keys, *expr.values):
                if part is not None:
                    self._dim_of(ctx, env, part, report)
            return None
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                self._dim_of(ctx, env, value, report)
            return None
        if isinstance(expr, (ast.Await, ast.Starred)):
            return self._dim_of(ctx, env, expr.value, report)
        if isinstance(expr, ast.NamedExpr):
            return self._dim_of(ctx, env, expr.value, report)
        if isinstance(expr, ast.JoinedStr):
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    self._dim_of(ctx, env, value.value, report)
            return None
        return None

    def _dim_of_binop(
        self,
        ctx: ModuleContext,
        env: _Env,
        expr: ast.BinOp,
        report: Emit | None,
    ) -> str | None:
        left = self._dim_of(ctx, env, expr.left, report)
        right = self._dim_of(ctx, env, expr.right, report)
        op = expr.op
        if isinstance(op, (ast.LShift, ast.RShift)):
            return None  # shift-based unit conversion idiom: exempt
        if isinstance(op, (ast.Add, ast.Sub)):
            if left is not None and right is not None and left != right:
                if report is not None:
                    report(
                        "L320",
                        expr.lineno,
                        f"{'adding' if isinstance(op, ast.Add) else 'subtracting'} "
                        f"{_HUMAN[right]} {'to' if isinstance(op, ast.Add) else 'from'} "
                        f"{_HUMAN[left]} mixes unit dimensions",
                        left=left,
                        right=right,
                    )
                return None
            return left or right
        if isinstance(op, ast.Mult):
            if self._is_float_literal(expr.left) or self._is_float_literal(
                expr.right
            ):
                return None  # float scaling = conversion in progress
            if {left, right} == {MIB, BYTES}:
                return BYTES  # count * bytes-per-unit multiplier
            if {left, right} == {RATE, SECONDS}:
                return BYTES
            if left is not None and right is None:
                return left
            if right is not None and left is None:
                return right
            return None
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if self._is_float_literal(expr.right):
                return None
            if left == BYTES and right == SECONDS:
                return RATE
            if left == BYTES and right == RATE:
                return SECONDS
            if left is not None and right == left:
                return None  # same dim cancels to a ratio
            if left is not None and right is None:
                # Keep the dimension only for division by an integer
                # literal; an unknown divisor may be a conversion factor.
                if isinstance(expr.right, ast.Constant) and isinstance(
                    expr.right.value, int
                ):
                    return left
                return None
            return None
        if isinstance(op, ast.Mod):
            return left
        return None

    @staticmethod
    def _is_float_literal(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, float):
            return True
        return (
            isinstance(expr, ast.UnaryOp)
            and isinstance(expr.operand, ast.Constant)
            and isinstance(expr.operand.value, float)
        )

    def _check_compare(
        self,
        ctx: ModuleContext,
        env: _Env,
        expr: ast.Compare,
        report: Emit | None,
    ) -> None:
        operands = [expr.left, *expr.comparators]
        dims = [self._dim_of(ctx, env, op, report) for op in operands]
        known = [d for d in dims if d is not None]
        if len(set(known)) > 1 and report is not None:
            names = " vs ".join(_HUMAN[d] for d in dict.fromkeys(known))
            report(
                "L320",
                expr.lineno,
                f"comparison mixes unit dimensions: {names}",
                dims=sorted(set(known)),
            )

    def _dim_of_call(
        self,
        ctx: ModuleContext,
        env: _Env,
        call: ast.Call,
        report: Emit | None,
    ) -> str | None:
        arg_dims = [self._dim_of(ctx, env, a, report) for a in call.args]
        for kw in call.keywords:
            self._dim_of(ctx, env, kw.value, report)
        qual = ctx.qualified(call.func) or ""
        terminal = qual.rsplit(".", 1)[-1]
        if terminal in _SIZE_HELPERS:
            if (
                report is not None
                and len(call.args) == 1
                and arg_dims
                and arg_dims[0] == BYTES
            ):
                report(
                    "L320",
                    call.lineno,
                    f"{terminal}(...) converts a value already in bytes; "
                    "double conversion",
                    helper=terminal,
                )
            return BYTES
        if terminal in _RATE_HELPERS:
            return RATE
        if terminal in {"sum", "min", "max", "abs"} and call.args:
            # Propagate only when *every* argument agrees — a clamp
            # like max(x_bytes, floor) deliberately mixes and must not
            # smear one operand's dimension over the result.
            if (
                arg_dims
                and all(d is not None for d in arg_dims)
                and len(set(arg_dims)) == 1
            ):
                return arg_dims[0]
        return None


def _join_env(a: _Env, b: _Env) -> _Env:
    return {k: v for k, v in a.items() if b.get(k) == v} | {
        k: v for k, v in b.items() if a.get(k) == v
    }
