"""L300: no blocking call inside the async serve/client code.

The serve daemon and the plan client run their request handling on an
event loop; one blocking call stalls every connection. This rule
re-derives that safety argument statically:

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
========  ==========================================================

The rule is path-sensitive: a future resolved inside a sync helper is
clean, and an ``await``-wrapped executor hop never fires.
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
    dotted_parts,
    expr_key,
    item_exprs,
    iter_calls,
    run_dataflow,
)

__all__ = ["AsyncBlockingRule"]

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

#: abstract value env: name/self-attr key -> tag
_Env = dict[str, str]


def _join_env(a: _Env, b: _Env) -> _Env:
    out = dict(a)
    for key, tag in b.items():
        if key in out and out[key] != tag:
            del out[key]  # conflicting facts: drop rather than guess
        else:
            out[key] = tag
    return out


class AsyncBlockingRule(FlowRule):
    """L300: blocking calls reachable inside ``async def`` bodies."""

    codes = {"L300": "blocking call inside an async def body (serve/client)"}
    packages = frozenset({"serve", "client"})

    def check_function(
        self, ctx: ModuleContext, unit: FunctionUnit, emit: Emit
    ) -> None:
        if not unit.is_async:
            return
        run_dataflow(unit.cfg, {}, partial(self._scan_item, ctx), _join_env, emit)

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
        for expr in item_exprs(item):
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
