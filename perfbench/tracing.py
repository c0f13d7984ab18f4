"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: each layer is timed by replacing its
public functions, at the name the caller imports, with a wrapper that
records a span (name, start, end, parent) in memory. Self time is a
span's duration minus the time its child spans cover, so nested layers
(planner inside the serve worker, PFS inside the executor) are never
counted twice. Wrappers are installed only for a traced run and removed
afterwards, so untraced runs execute the original functions.

Threads keep separate span stacks, so a span nests only within the
thread that opened it.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from typing import Any

#: (span name, "module[:Class]", attribute, result hook name or None).
#: The owner is the namespace the *caller* looks the name up in, e.g.
#: ``repro.core.columnar`` for ``place_group`` (columnar imports it).
SPANS: tuple[tuple[str, str, str, str | None], ...] = (
    # api + core.tuning
    ("api.context", "repro.api:Experiment", "context", None),
    ("api.requests", "repro.api:Experiment", "requests", None),
    ("tune.auto_tune", "repro.api", "auto_tune", None),
    ("tune.auto_tune", "repro.core.tuning", "auto_tune", None),
    # planner: core.columnar, core.placement, core.partition_tree, analysis.model
    ("plan.total", "repro.core.driver", "plan_columnar", "plan"),
    ("plan.divide", "repro.core.columnar", "divide_groups_flat", None),
    ("plan.slots", "repro.core.placement:SlotPlan", "build", None),
    ("plan.tree", "repro.core.partition_tree:PartitionTree", "build_indexed", None),
    ("plan.place", "repro.core.columnar", "place_group", None),
    ("plan.rebalance", "repro.core.columnar", "rebalance", None),
    ("plan.build_domains", "repro.core.columnar", "build_domains", None),
    ("plan.price", "planner_scaling", "price_domains", None),
    # executor: io.rounds, io.shuffle
    ("exec.total", "repro.core.driver", "execute_collective", "exec"),
    ("exec.total", "repro.io.two_phase", "execute_collective", "exec"),
    ("exec.exchange", "repro.io.rounds", "plan_exchange", "exchange"),
    ("exec.shuffle_flows", "repro.io.rounds", "shuffle_flows", None),
    # PFS: fs.pfs (flows are built per striped window)
    ("pfs.flows", "repro.fs.pfs:ParallelFileSystem", "access_flows", None),
    ("pfs.account", "repro.fs.pfs:ParallelFileSystem", "account_access", None),
    # faults: the lever pricing the degradation controller calls
    ("faults.levers", "repro.io.rounds", "price_shrink", None),
    ("faults.levers", "repro.io.rounds", "price_remerge", None),
    ("faults.levers", "repro.io.rounds", "price_borrow", None),
    ("faults.levers", "repro.io.rounds", "price_page", None),
    ("faults.levers", "repro.io.rounds", "choose_lever", None),
    # serve, client, analysis.verify
    ("serve.hash", "repro.serve.protocol:PlanRequest", "spec_hash", None),
    ("serve.lookup", "repro.serve.shards:ShardedPlanCache", "get_verified", "lookup"),
    ("serve.verify", "repro.serve.shards", "verify_plan", None),
    ("serve.plan", "repro.client", "plan_payload_for_fields", None),
    ("serve.put", "repro.serve.shards:ShardedPlanCache", "put", None),
)

#: Hot functions that are counted, not timed: a span per call would
#: cost more than the call. Counted only inside the named span.
COUNTED: tuple[tuple[str, str, str, str], ...] = (
    ("exec.intersects", "repro.util.intervals:ExtentList", "intersect", "exec.total"),
)


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                with self._lock:
                    self.self_s[name] += duration - frame[2]
                    self.total_s[name] += duration
                    self.calls[name] += 1
                    self.spans.append(
                        (name, frame[1], end, parent[0] if parent else None)
                    )
            if hook is not None:
                with self._lock:
                    hook(self, result, args)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable, within: str) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if any(frame[0] == within for frame in self._stack()):
                with self._lock:
                    self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --------------------------------------------------------- installation
    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, owner, attr, hook in SPANS:
            hook_fn = HOOKS[hook] if hook else None
            self._patch(
                _resolve(owner), attr,
                lambda fn, n=name, h=hook_fn: self._timed(n, fn, h),
            )
        for name, owner, attr, within in COUNTED:
            self._patch(
                _resolve(owner), attr,
                lambda fn, n=name, w=within: self._counted(n, fn, w),
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -------------------------------------------------------------- report
    def layer_table(self, wall_s: float, overhead_s: float) -> dict[str, Any]:
        """Per-span self time, inclusive time, calls and share of wall."""
        rows = {
            name: {
                "self_s": self.self_s[name],
                "total_s": self.total_s[name],
                "calls": self.calls[name],
                "share": self.self_s[name] / wall_s if wall_s > 0 else 0.0,
            }
            for name in sorted(self.self_s)
        }
        traced = sum(self.self_s.values())
        return {
            "wall_s": wall_s,
            "rows": rows,
            "counts": dict(sorted(self.counts.items())),
            "untraced_s": wall_s - traced,
            "overhead_s": overhead_s,
            "n_spans": len(self.spans),
        }


# ------------------------------------------------------------------ hooks
# Hooks turn a wrapped call's result into counts; they run after the
# span closed, so their own cost is not billed to the layer.


def _plan_hook(tracer: Tracer, result: Any, args: tuple) -> None:
    domains, stats, group_sizes = result
    tracer.counts["plan.groups"] += len(group_sizes)
    tracer.counts["plan.domains"] += len(domains)
    tracer.counts["plan.remerges"] += stats.n_remerges


def _exec_hook(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.counts["exec.rounds"] += result.n_rounds
    tracer.counts["exec.domains"] += len(args[3])
    counters = result.telemetry.counters if result.telemetry is not None else {}
    tracer.counts["faults.events"] += int(counters.get("fault_events", 0))
    for key, value in counters.items():
        if key.startswith("recoveries_"):
            tracer.counts["faults." + key] += int(value)
            tracer.counts["faults.recoveries"] += int(value)


def _exchange_hook(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.counts["exec.pieces"] += len(result)


def _lookup_hook(tracer: Tracer, result: Any, args: tuple) -> None:
    name = {"hit": "serve.hits", "rejected": "serve.rejects"}.get(result[1], "serve.misses")
    tracer.counts[name] += 1


HOOKS: dict[str, Callable[[Tracer, Any, tuple], None]] = {
    "plan": _plan_hook,
    "exec": _exec_hook,
    "exchange": _exchange_hook,
    "lookup": _lookup_hook,
}
