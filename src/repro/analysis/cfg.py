"""Per-function control-flow graphs over the :mod:`ast` module.

The flow-sensitive lint rules (L300/L310/L320) need to reason about
*paths* — a future bound on one branch but not the other, an RNG
seeded only inside an ``if``, a variable whose unit changes across a
loop.  :func:`build_cfg` lowers one function body into basic blocks of
straight-line statements connected by control edges; the worklist
driver in :mod:`repro.analysis.flow` then runs a rule's transfer
function over the graph to a fixpoint.

Compound statements are decomposed so every *evaluated expression*
appears exactly once on the paths that evaluate it:

* ``if``/``while`` tests become :class:`CondTest` markers in the block
  that evaluates them;
* ``for`` iterables and loop targets become :class:`LoopIter` markers
  in the loop-header block;
* ``with`` context managers become a :class:`WithEnter` marker ahead
  of the (inlined) body;
* ``try`` is modelled coarsely but soundly for forward may-analyses:
  every block of the protected body gets an edge to every handler.

Nested function/class definitions are kept as opaque statements — each
function gets its own CFG from the walker in
:mod:`repro.analysis.flow`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "Block",
    "CFG",
    "CondTest",
    "LoopIter",
    "Marker",
    "WithEnter",
    "build_cfg",
]


class Marker:
    """A synthetic statement carrying part of a compound statement."""

    __slots__ = ("node",)

    def __init__(self, node: ast.AST) -> None:
        self.node = node

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 0)


class CondTest(Marker):
    """The test expression of an ``if``/``while`` (evaluated here)."""

    __slots__ = ("expr",)

    def __init__(self, node: ast.AST, expr: ast.expr) -> None:
        super().__init__(node)
        self.expr = expr


class LoopIter(Marker):
    """A ``for`` header: ``target`` is re-bound from ``iter`` here."""

    __slots__ = ("target", "iter")

    def __init__(self, node: ast.For | ast.AsyncFor) -> None:
        super().__init__(node)
        self.target = node.target
        self.iter = node.iter


class WithEnter(Marker):
    """Entry of a ``with`` block; ``items`` are the context managers."""

    __slots__ = ("items",)

    def __init__(self, node: ast.With | ast.AsyncWith) -> None:
        super().__init__(node)
        self.items = node.items


#: what a basic block holds: plain statements and compound-stmt markers
Item = ast.stmt | Marker


@dataclass(slots=True)
class Block:
    """Straight-line items plus the successor edges out of them."""

    id: int
    items: list[Item] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)

    def add_edge(self, to: int) -> None:
        if to not in self.succs:
            self.succs.append(to)


@dataclass(slots=True)
class CFG:
    """One function's control-flow graph; block 0 is the entry."""

    func: ast.FunctionDef | ast.AsyncFunctionDef
    blocks: list[Block]
    exit_id: int

    @property
    def entry_id(self) -> int:
        return 0

    def reverse_postorder(self) -> list[int]:
        """Block ids in reverse postorder (stable iteration order)."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(bid: int) -> None:
            # Iterative DFS; function bodies can nest arbitrarily deep.
            stack: list[tuple[int, int]] = [(bid, 0)]
            seen.add(bid)
            while stack:
                cur, idx = stack[-1]
                succs = self.blocks[cur].succs
                if idx < len(succs):
                    stack[-1] = (cur, idx + 1)
                    nxt = succs[idx]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, 0))
                else:
                    order.append(cur)
                    stack.pop()

        visit(self.entry_id)
        order.reverse()
        return order


class _Builder:
    """Lowers one statement list into blocks (single pass, no backpatch)."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        self.blocks: list[Block] = []
        self.current = self._new_block()
        # (continue-target, break-target) per enclosing loop
        self._loops: list[tuple[int, int]] = []
        # handler-block ids of every enclosing try (for raise edges)
        self._handler_stack: list[list[int]] = []

    def _new_block(self) -> Block:
        block = Block(id=len(self.blocks))
        self.blocks.append(block)
        return block

    def _goto(self, block: Block) -> None:
        """Make ``block`` the current insertion point."""
        self.current = block

    def _terminate_into(self, target_id: int) -> None:
        """End the current block with an edge, then start a dead block."""
        self.current.add_edge(target_id)
        self._goto(self._new_block())

    # ---------------------------------------------------------------- lowering
    def build(self) -> CFG:
        self._lower_body(self.func.body)
        exit_block = self._new_block()
        # Whatever block is live at the end falls through to exit.
        for block in self.blocks[:-1]:
            if not block.succs and self._reaches_end(block):
                block.add_edge(exit_block.id)
        return CFG(func=self.func, blocks=self.blocks, exit_id=exit_block.id)

    def _reaches_end(self, block: Block) -> bool:
        """A block with no successors that isn't explicitly terminated."""
        if block.items:
            last = block.items[-1]
            if isinstance(last, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
                return False
        return True

    def _lower_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, (ast.While,)):
            self._lower_while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._lower_for(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._lower_with(stmt)
        elif isinstance(stmt, (ast.Try, *(
            (ast.TryStar,) if hasattr(ast, "TryStar") else ()
        ))):
            self._lower_try(stmt)  # type: ignore[arg-type]
        elif isinstance(stmt, ast.Match):
            self._lower_match(stmt)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            self.current.items.append(stmt)
            if self._loops:
                continue_to, break_to = self._loops[-1]
                target = break_to if isinstance(stmt, ast.Break) else continue_to
                self._terminate_into(target)
            else:  # malformed code; keep the graph well-formed
                self._goto(self._new_block())
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            self.current.items.append(stmt)
            self._raise_edges()
            self._goto(self._new_block())
        else:
            # Plain statement (incl. nested def/class, kept opaque). Any
            # statement may raise into an enclosing handler.
            self.current.items.append(stmt)
            self._raise_edges()

    def _raise_edges(self) -> None:
        for handlers in self._handler_stack:
            for handler_id in handlers:
                self.current.add_edge(handler_id)

    def _lower_if(self, stmt: ast.If) -> None:
        self.current.items.append(CondTest(stmt, stmt.test))
        branch_from = self.current
        then_block = self._new_block()
        branch_from.add_edge(then_block.id)
        self._goto(then_block)
        self._lower_body(stmt.body)
        then_end = self.current
        if stmt.orelse:
            else_block = self._new_block()
            branch_from.add_edge(else_block.id)
            self._goto(else_block)
            self._lower_body(stmt.orelse)
            else_end = self.current
            join = self._new_block()
            then_end.add_edge(join.id)
            else_end.add_edge(join.id)
        else:
            join = self._new_block()
            branch_from.add_edge(join.id)
            then_end.add_edge(join.id)
        self._goto(join)

    def _lower_while(self, stmt: ast.While) -> None:
        header = self._new_block()
        self.current.add_edge(header.id)
        header.items.append(CondTest(stmt, stmt.test))
        body_block = self._new_block()
        after = self._new_block()
        header.add_edge(body_block.id)
        self._loops.append((header.id, after.id))
        self._goto(body_block)
        self._lower_body(stmt.body)
        self.current.add_edge(header.id)
        self._loops.pop()
        if stmt.orelse:
            else_block = self._new_block()
            header.add_edge(else_block.id)
            self._goto(else_block)
            self._lower_body(stmt.orelse)
            self.current.add_edge(after.id)
        else:
            header.add_edge(after.id)
        self._goto(after)

    def _lower_for(self, stmt: ast.For | ast.AsyncFor) -> None:
        header = self._new_block()
        self.current.add_edge(header.id)
        header.items.append(LoopIter(stmt))
        body_block = self._new_block()
        after = self._new_block()
        header.add_edge(body_block.id)
        self._loops.append((header.id, after.id))
        self._goto(body_block)
        self._lower_body(stmt.body)
        self.current.add_edge(header.id)
        self._loops.pop()
        if stmt.orelse:
            else_block = self._new_block()
            header.add_edge(else_block.id)
            self._goto(else_block)
            self._lower_body(stmt.orelse)
            self.current.add_edge(after.id)
        else:
            header.add_edge(after.id)
        self._goto(after)

    def _lower_with(self, stmt: ast.With | ast.AsyncWith) -> None:
        self.current.items.append(WithEnter(stmt))
        self._raise_edges()
        self._lower_body(stmt.body)

    def _lower_try(self, stmt: ast.Try) -> None:
        handler_blocks = [self._new_block() for _ in stmt.handlers]
        join = self._new_block()
        body_entry = self._new_block()
        self.current.add_edge(body_entry.id)
        self._goto(body_entry)
        self._handler_stack.append([b.id for b in handler_blocks])
        self._lower_body(stmt.body)
        self._handler_stack.pop()
        if stmt.orelse:
            self._lower_body(stmt.orelse)
        self.current.add_edge(join.id)
        for block, handler in zip(handler_blocks, stmt.handlers):
            self._goto(block)
            self._lower_body(handler.body)
            self.current.add_edge(join.id)
        self._goto(join)
        if stmt.finalbody:
            self._lower_body(stmt.finalbody)

    def _lower_match(self, stmt: ast.Match) -> None:
        # Coarse: the subject is evaluated, then any case body may run.
        self.current.items.append(ast.Expr(value=stmt.subject))
        branch_from = self.current
        join = self._new_block()
        for case in stmt.cases:
            case_block = self._new_block()
            branch_from.add_edge(case_block.id)
            self._goto(case_block)
            self._lower_body(case.body)
            self.current.add_edge(join.id)
        branch_from.add_edge(join.id)  # no case may match
        self._goto(join)


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder(func).build()
