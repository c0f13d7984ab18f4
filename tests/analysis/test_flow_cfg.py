"""CFG construction and the dataflow framework underneath the L3xx rules."""

from __future__ import annotations

import ast

from repro.analysis.cfg import CondTest, LoopIter, WithEnter, build_cfg
from repro.analysis.flow import (
    ModuleContext,
    collect_functions,
    fixpoint,
    iter_calls,
    module_unit,
)


def first_func(source: str):
    tree = ast.parse(source)
    func = tree.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return func


def all_items(cfg):
    return [item for block in cfg.blocks for item in block.items]


class TestBuildCfg:
    def test_straight_line_single_block(self):
        cfg = build_cfg(first_func("def f(x):\n    y = x\n    return y\n"))
        order = cfg.reverse_postorder()
        assert order[0] == cfg.entry_id
        # both statements land in the entry block; return terminates,
        # so the block has no successors
        assert len(cfg.blocks[cfg.entry_id].items) == 2
        assert cfg.blocks[cfg.entry_id].succs == []

    def test_fallthrough_reaches_exit(self):
        cfg = build_cfg(first_func("def f(x):\n    y = x\n"))
        assert cfg.exit_id in cfg.reverse_postorder()

    def test_if_produces_branch_and_join(self):
        cfg = build_cfg(first_func(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n"
        ))
        entry = cfg.blocks[cfg.entry_id]
        assert isinstance(entry.items[-1], CondTest)
        assert len(entry.succs) == 2  # then + else

    def test_while_has_back_edge(self):
        cfg = build_cfg(first_func(
            "def f(n):\n"
            "    while n:\n"
            "        n -= 1\n"
            "    return n\n"
        ))
        headers = [
            b.id for b in cfg.blocks
            if any(isinstance(i, CondTest) for i in b.items)
        ]
        assert len(headers) == 1
        header = headers[0]
        back_edges = [
            b.id for b in cfg.blocks if header in b.succs and b.id > header
        ]
        assert back_edges, "loop body must edge back to the header"

    def test_for_header_carries_loop_iter(self):
        cfg = build_cfg(first_func(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        print(x)\n"
        ))
        iters = [i for i in all_items(cfg) if isinstance(i, LoopIter)]
        assert len(iters) == 1
        assert isinstance(iters[0].target, ast.Name)

    def test_with_brackets_body(self):
        cfg = build_cfg(first_func(
            "def f(lock):\n"
            "    with lock:\n"
            "        x = 1\n"
            "    return x\n"
        ))
        items = all_items(cfg)
        enters = [i for i in items if isinstance(i, WithEnter)]
        assert len(enters) == 1
        # the context manager is entered before the inlined body runs
        flat = [type(i).__name__ for i in items]
        assert flat.index("WithEnter") < flat.index("Assign")

    def test_try_body_edges_to_handler(self):
        cfg = build_cfg(first_func(
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except ValueError:\n"
            "        fallback()\n"
        ))
        # the block holding risky() must have >= 2 successors
        # (handler + fall-through)
        for block in cfg.blocks:
            for item in block.items:
                if isinstance(item, ast.Expr):
                    call = item.value
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "risky"
                    ):
                        assert len(block.succs) >= 2
                        return
        raise AssertionError("risky() statement not found")

    def test_break_exits_loop(self):
        cfg = build_cfg(first_func(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        if x:\n"
            "            break\n"
            "    return 1\n"
        ))
        # the break block must jump straight to the block holding the
        # post-loop return, bypassing the loop header
        break_block = next(
            b for b in cfg.blocks
            if any(isinstance(i, ast.Break) for i in b.items)
        )
        return_block = next(
            b for b in cfg.blocks
            if any(isinstance(i, ast.Return) for i in b.items)
        )
        assert break_block.succs == [return_block.id]
        assert return_block.id in cfg.reverse_postorder()


class TestFixpoint:
    def test_reaches_fixpoint_on_loop(self):
        # Collect the set of assigned names; the loop must terminate.
        cfg = build_cfg(first_func(
            "def f(n):\n"
            "    x = 0\n"
            "    while n:\n"
            "        y = x\n"
            "        n -= 1\n"
        ))

        def transfer(state: frozenset, item) -> frozenset:
            if isinstance(item, ast.Assign):
                names = {
                    t.id for t in item.targets if isinstance(t, ast.Name)
                }
                return state | frozenset(names)
            return state

        states = fixpoint(cfg, frozenset(), transfer, lambda a, b: a | b)
        assert states[cfg.exit_id] >= {"x", "y"}

    def test_branch_join_is_union(self):
        cfg = build_cfg(first_func(
            "def f(c):\n"
            "    if c:\n"
            "        a = 1\n"
            "    else:\n"
            "        b = 2\n"
        ))

        def transfer(state: frozenset, item) -> frozenset:
            if isinstance(item, ast.Assign):
                return state | frozenset(
                    t.id for t in item.targets if isinstance(t, ast.Name)
                )
            return state

        states = fixpoint(cfg, frozenset(), transfer, lambda a, b: a | b)
        assert states[cfg.exit_id] == {"a", "b"}


class TestModuleContext:
    def test_import_alias_resolution(self):
        tree = ast.parse(
            "import time as t\n"
            "import numpy as np\n"
            "from http import client\n"
        )
        ctx = ModuleContext.from_tree(tree, "serve/daemon.py")
        assert ctx.package == "serve"
        assert ctx.qualified(ast.parse("t.sleep").body[0].value) == "time.sleep"
        assert (
            ctx.qualified(ast.parse("np.random.default_rng").body[0].value)
            == "numpy.random.default_rng"
        )
        assert (
            ctx.qualified(ast.parse("client.HTTPConnection").body[0].value)
            == "http.client.HTTPConnection"
        )

    def test_top_level_module_package_is_stem(self):
        ctx = ModuleContext.from_tree(ast.parse("x = 1\n"), "client.py")
        assert ctx.package == "client"

    def test_constants_and_mutable_globals(self):
        tree = ast.parse(
            "SEED = 7\n"
            "_CACHE = {}\n"
            "_ITEMS = list()\n"
            "name = 'x'\n"
        )
        ctx = ModuleContext.from_tree(tree, "campaign/state.py")
        assert ctx.constants == {"SEED", "name"}


class TestCollection:
    def test_collect_functions_nested_and_methods(self):
        tree = ast.parse(
            "def outer():\n"
            "    def inner():\n"
            "        pass\n"
            "class C:\n"
            "    def method(self):\n"
            "        pass\n"
            "    async def amethod(self):\n"
            "        pass\n"
        )
        units = {u.qualname: u for u in collect_functions(tree)}
        assert set(units) == {"outer", "outer.inner", "C.method", "C.amethod"}
        assert units["C.amethod"].is_async
        assert not units["C.method"].is_async

    def test_module_unit_excludes_defs(self):
        tree = ast.parse(
            "x = 1\n"
            "def f():\n"
            "    pass\n"
            "y = 2\n"
        )
        unit = module_unit(tree)
        assert unit.qualname == "<module>"
        assert len(unit.node.body) == 2

    def test_iter_calls_prunes_nested_defs(self):
        stmt = ast.parse(
            "def f():\n"
            "    top()\n"
            "    def g():\n"
            "        nested()\n"
        ).body[0]
        names = {
            c.func.id
            for c in iter_calls(stmt)
            if isinstance(c.func, ast.Name)
        }
        assert names == {"top"}
