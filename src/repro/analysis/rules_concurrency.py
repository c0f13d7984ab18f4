"""L300-family flow rules: async blocking, shared state, lock order.

The serve daemon, the campaign process pool, and the remote-pool
ledger are the concurrency-heavy layers of the repo; these rules
re-derive their safety arguments statically:

========  ==========================================================
rule      what it catches
========  ==========================================================
L300      a blocking call reachable inside an ``async def`` body:
          ``time.sleep``, ``open``/``Path.read_text``-style file I/O,
          synchronous ``http.client`` traffic, ``input``,
          ``subprocess``, and ``.result()``/``.exception()`` on a
          future returned by ``Executor.submit`` — tracked through
          assignments, so ``fut = pool.submit(f); fut.result()``
          is caught, not just the chained form
L301      module-level mutable state (dict/list/set bindings) written
          from function scope in the ``campaign``/``serve`` packages —
          worker processes and event-loop handlers must not share
          writable module globals (fork copies diverge silently;
          threads race)
L302      a second lock acquired while another is held, unless both
          are shard locks of the same vector acquired in ascending
          index order (constant indexes, or an index variable bound
          by ``for i in sorted(...)``) — the deadlock-freedom
          argument for ``ShardedPlanCache`` and the ``RemotePool``
          ledger
========  ==========================================================

All three are path-sensitive: a lock released on every path before the
next acquire is clean, a future resolved inside a sync helper is
clean, and an ``await``-wrapped executor hop never fires L300.
"""

from __future__ import annotations

import ast
from collections.abc import Callable
from typing import Union

from .cfg import CondTest, Item, LoopIter, WithEnter, WithExit
from .flow import (
    Emit,
    FlowRule,
    FunctionUnit,
    ModuleContext,
    assign_target_keys,
    dotted_parts,
    emit_pass,
    expr_key,
    fixpoint,
    iter_calls,
)

__all__ = ["AsyncBlockingRule", "SharedStateRule", "LockOrderRule"]

#: import-resolved call targets that block the event loop outright
_BLOCKING_CALLS: dict[str, str] = {
    "time.sleep": "sleeps the whole event loop; use asyncio.sleep",
    "input": "blocks on stdin",
    "open": "synchronous file I/O; run it in an executor",
    "os.system": "blocks on a subprocess",
    "subprocess.run": "blocks on a subprocess",
    "subprocess.call": "blocks on a subprocess",
    "subprocess.check_call": "blocks on a subprocess",
    "subprocess.check_output": "blocks on a subprocess",
    "socket.create_connection": "synchronous connect",
    "urllib.request.urlopen": "synchronous HTTP",
}

#: constructors whose instances carry a blocking-I/O tag
_TAG_CONSTRUCTORS: dict[str, str] = {
    "http.client.HTTPConnection": "sync-http",
    "http.client.HTTPSConnection": "sync-http",
    "pathlib.Path": "path",
}

#: tag -> methods that block when called on a tagged value
_TAG_BLOCKING_METHODS: dict[str, frozenset[str]] = {
    "future": frozenset({"result", "exception"}),
    "sync-http": frozenset({"request", "getresponse", "connect"}),
    "path": frozenset(
        {"read_text", "write_text", "read_bytes", "write_bytes", "open"}
    ),
}

#: mutating container methods for the L301 module-state check
_MUTATING_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault", "pop",
     "popitem", "clear", "remove", "discard"}
)

#: abstract value env: name/self-attr key -> tag
_Env = dict[str, str]
#: one held lock: ("plain"|"indexed", base expression, index descriptor)
_Token = tuple[str, str, Union[str, int, None]]
_State = tuple[_Env, frozenset[_Token]]


def _join_env(a: _Env, b: _Env) -> _Env:
    out = dict(a)
    for key, tag in b.items():
        if key in out and out[key] != tag:
            del out[key]  # conflicting facts: drop rather than guess
        else:
            out[key] = tag
    return out


def _join(a: _State, b: _State) -> _State:
    return _join_env(a[0], b[0]), a[1] | b[1]


def _is_lockish(name: str | None) -> bool:
    lowered = (name or "").lower()
    return "lock" in lowered or "mutex" in lowered


def _lock_token(expr: ast.expr) -> _Token | None:
    """The lock token a ``with``-item / ``.acquire()`` receiver names."""
    if isinstance(expr, ast.Subscript):
        base = expr_key(expr.value)
        terminal = base.rsplit(".", 1)[-1] if base else None
        if base is not None and _is_lockish(terminal):
            index: str | int | None
            if isinstance(expr.slice, ast.Constant) and isinstance(
                expr.slice.value, int
            ):
                index = expr.slice.value
            elif isinstance(expr.slice, ast.Name):
                index = expr.slice.id
            else:
                index = ast.dump(expr.slice)
            return ("indexed", base, index)
        return None
    key = expr_key(expr)
    terminal = key.rsplit(".", 1)[-1] if key else None
    if key is not None and _is_lockish(terminal):
        return ("plain", key, None)
    return None


class AsyncBlockingRule(FlowRule):
    """L300: blocking calls reachable inside ``async def`` bodies."""

    codes = {"L300": "blocking call inside an async def body (serve/client)"}
    packages = frozenset({"serve", "client"})

    def check_function(
        self, ctx: ModuleContext, unit: FunctionUnit, emit: Emit
    ) -> None:
        if not unit.is_async:
            return
        cfg = unit.cfg

        def transfer_factory(
            report: Emit | None,
        ) -> Callable[[_State, Item], _State]:
            def transfer(state: _State, item: Item) -> _State:
                env, held = state
                env = self._scan_item(ctx, env, item, report)
                return env, held

            return transfer

        initial: _State = ({}, frozenset())
        states = fixpoint(cfg, initial, transfer_factory(None), _join)
        emit_pass(cfg, states, transfer_factory(emit))

    # ------------------------------------------------------------ internals
    def _scan_item(
        self,
        ctx: ModuleContext,
        env: _Env,
        item: Item,
        report: Emit | None,
    ) -> _Env:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return env
        exprs = self._item_exprs(item)
        for expr in exprs:
            for call in iter_calls(expr):
                self._check_call(ctx, env, call, report)
        if isinstance(item, ast.Assign) and isinstance(item.value, ast.Call):
            tag = self._value_tag(ctx, env, item.value)
            if tag is not None:
                env = dict(env)
                for target in item.targets:
                    for key in assign_target_keys(target):
                        env[key] = tag
            else:
                changed = None
                for target in item.targets:
                    for key in assign_target_keys(target):
                        if key in env:
                            changed = changed if changed is not None else dict(env)
                            del changed[key]
                env = changed if changed is not None else env
        elif isinstance(item, ast.Assign):
            # Re-binding a tagged name to a non-call kills the tag.
            source = expr_key(item.value)
            tag = env.get(source) if source is not None else None
            rebound = dict(env)
            touched = False
            for target in item.targets:
                for key in assign_target_keys(target):
                    touched = True
                    if tag is not None:
                        rebound[key] = tag
                    else:
                        rebound.pop(key, None)
            if touched:
                env = rebound
        return env

    def _item_exprs(self, item: Item) -> list[ast.expr]:
        if isinstance(item, CondTest):
            return [item.expr]
        if isinstance(item, LoopIter):
            return [item.iter]
        if isinstance(item, (WithEnter,)):
            return [w.context_expr for w in item.items]
        if isinstance(item, WithExit):
            return []
        if isinstance(item, ast.stmt):
            return [
                child
                for child in ast.iter_child_nodes(item)
                if isinstance(child, ast.expr)
            ]
        return []

    def _value_tag(
        self, ctx: ModuleContext, env: _Env, call: ast.Call
    ) -> str | None:
        qual = ctx.qualified(call.func)
        if qual is not None and qual in _TAG_CONSTRUCTORS:
            return _TAG_CONSTRUCTORS[qual]
        parts = dotted_parts(call.func)
        if parts is not None and parts[-1] == "submit":
            return "future"
        # A tagged value passed through a trivial rebinding call keeps
        # no tag — conservative, avoids guessing about wrappers.
        return None

    def _check_call(
        self,
        ctx: ModuleContext,
        env: _Env,
        call: ast.Call,
        report: Emit | None,
    ) -> None:
        if report is None:
            return
        qual = ctx.qualified(call.func)
        if qual is not None and qual in _BLOCKING_CALLS:
            report(
                "L300",
                call.lineno,
                f"{qual}() inside an async def {_BLOCKING_CALLS[qual]}",
                call=qual,
            )
            return
        if not isinstance(call.func, ast.Attribute):
            return
        method = call.func.attr
        receiver = call.func.value
        # Chained form: pool.submit(f).result()
        if isinstance(receiver, ast.Call):
            inner = dotted_parts(receiver.func)
            if (
                inner is not None
                and inner[-1] == "submit"
                and method in _TAG_BLOCKING_METHODS["future"]
            ):
                report(
                    "L300",
                    call.lineno,
                    f"submit(...).{method}() blocks the event loop on an "
                    "executor future; await run_in_executor instead",
                    call=f"submit().{method}",
                )
            return
        key = expr_key(receiver)
        tag = env.get(key) if key is not None else None
        if tag is not None and method in _TAG_BLOCKING_METHODS.get(tag, frozenset()):
            report(
                "L300",
                call.lineno,
                f"{key}.{method}() blocks the event loop ({tag} object "
                "created in this function)",
                call=f"{key}.{method}",
                tag=tag,
            )


class SharedStateRule(FlowRule):
    """L301: function-scope writes to module-level mutables."""

    codes = {
        "L301": "module-level mutable state written from campaign/serve "
        "functions"
    }
    packages = frozenset({"campaign", "serve"})
    module_body = False  # module-scope initialization is the legal write

    def check_function(
        self, ctx: ModuleContext, unit: FunctionUnit, emit: Emit
    ) -> None:
        if not ctx.mutable_globals:
            return
        shadowed = set(unit.params)
        declared_global: set[str] = set()
        own = self._own_nodes(unit.node)
        for node in own:
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        # Any bare-name binding makes the name function-local for the
        # whole body (Python scoping), so it shadows the module global.
        for node in own:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets = [node.target]
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                targets = [node.optional_vars]
            for target in targets:
                for key in assign_target_keys(target):
                    if "." not in key and key not in declared_global:
                        shadowed.add(key)
        for node in own:
            self._check_node(ctx, unit, node, shadowed, declared_global, emit)

    def _own_nodes(self, func: ast.AST) -> list[ast.AST]:
        """Walk the function body, pruning nested defs (own units)."""
        out: list[ast.AST] = []
        stack: list[ast.AST] = [func]
        while stack:
            node = stack.pop()
            if node is not func and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
            ):
                continue
            out.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return out

    def _check_node(
        self,
        ctx: ModuleContext,
        unit: FunctionUnit,
        node: ast.AST,
        shadowed: set[str],
        declared_global: set[str],
        emit: Emit,
    ) -> None:
        target_name: str | None = None
        verb = "written"
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared_global:
                    target_name = target.id
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    name = target.value.id
                    if name in ctx.mutable_globals and name not in shadowed:
                        target_name = name
                        verb = "item-assigned"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and node.func.attr in _MUTATING_METHODS
                and receiver.id in ctx.mutable_globals
                and receiver.id not in shadowed
            ):
                target_name = receiver.id
                verb = f".{node.func.attr}()-mutated"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    name = target.value.id
                    if name in ctx.mutable_globals and name not in shadowed:
                        target_name = name
                        verb = "item-deleted"
        if target_name is not None:
            emit(
                "L301",
                getattr(node, "lineno", 0),
                f"module-level mutable {target_name!r} (defined at line "
                f"{ctx.mutable_globals.get(target_name, '?')}) {verb} inside "
                f"{unit.qualname}(); worker processes and event-loop handlers "
                "must not share writable module globals",
                name=target_name,
                function=unit.qualname,
            )


class LockOrderRule(FlowRule):
    """L302: nested lock acquisition without shard-index ordering."""

    codes = {"L302": "nested lock acquire not ordered by shard index"}

    def check_function(
        self, ctx: ModuleContext, unit: FunctionUnit, emit: Emit
    ) -> None:
        cfg = unit.cfg

        def transfer_factory(
            report: Emit | None,
        ) -> Callable[[_State, Item], _State]:
            def transfer(state: _State, item: Item) -> _State:
                return self._transfer(unit, state, item, report)

            return transfer

        initial: _State = ({}, frozenset())
        states = fixpoint(cfg, initial, transfer_factory(None), _join)
        emit_pass(cfg, states, transfer_factory(emit))

    # ------------------------------------------------------------ internals
    def _transfer(
        self,
        unit: FunctionUnit,
        state: _State,
        item: Item,
        report: Emit | None,
    ) -> _State:
        env, held = state
        if isinstance(item, LoopIter):
            # ``for i in sorted(...)`` orders the index variable; shard
            # locks acquired under it are taken in ascending order.
            if (
                isinstance(item.iter, ast.Call)
                and isinstance(item.iter.func, ast.Name)
                and item.iter.func.id == "sorted"
            ):
                env = dict(env)
                for key in assign_target_keys(item.target):
                    env[key] = "sorted-index"
            return env, held
        if isinstance(item, WithEnter):
            for withitem in item.items:
                token = _lock_token(withitem.context_expr)
                if token is None:
                    continue
                if held and report is not None:
                    self._check_order(unit, env, held, token,
                                      withitem.context_expr, report)
                held = held | {token}
            return env, held
        if isinstance(item, WithExit):
            for withitem in item.items:
                token = _lock_token(withitem.context_expr)
                if token is not None:
                    held = held - {token}
            return env, held
        if isinstance(item, ast.stmt) and not isinstance(
            item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            for call in iter_calls(item):
                if not isinstance(call.func, ast.Attribute):
                    continue
                if call.func.attr == "acquire":
                    token = _lock_token(call.func.value)
                    if token is not None:
                        if held and report is not None:
                            self._check_order(
                                unit, env, held, token, call.func.value, report
                            )
                        held = held | {token}
                elif call.func.attr == "release":
                    token = _lock_token(call.func.value)
                    if token is not None:
                        held = held - {token}
        return env, held

    def _check_order(
        self,
        unit: FunctionUnit,
        env: _Env,
        held: frozenset[_Token],
        new: _Token,
        expr: ast.expr,
        report: Emit,
    ) -> None:
        for old in held:
            if self._ordered(env, old, new):
                continue
            report(
                "L302",
                expr.lineno,
                f"{unit.qualname}() acquires {self._describe(new)} while "
                f"holding {self._describe(old)}; nested acquisition must be "
                "ordered by ascending shard index (or release first)",
                held=self._describe(old),
                acquired=self._describe(new),
            )
            return  # one finding per acquire is enough

    @staticmethod
    def _ordered(env: _Env, old: _Token, new: _Token) -> bool:
        """True when ``old`` before ``new`` is a provably safe order."""
        if old[0] != "indexed" or new[0] != "indexed" or old[1] != new[1]:
            return False
        old_idx, new_idx = old[2], new[2]
        if isinstance(old_idx, int) and isinstance(new_idx, int):
            return old_idx < new_idx
        # Same index variable, bound by a sorted() loop: ascending.
        if (
            isinstance(old_idx, str)
            and old_idx == new_idx
            and env.get(old_idx) == "sorted-index"
        ):
            return True
        return False

    @staticmethod
    def _describe(token: _Token) -> str:
        kind, base, index = token
        if kind == "indexed":
            return f"{base}[{index}]"
        return base
