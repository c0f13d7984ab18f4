"""Memory-Conscious Collective I/O — the paper's contribution.

Orchestrates the four components over the shared round engine, all on
the workload's flattened ``(offset, length, rank)`` columns
(:func:`~repro.core.columnar.plan_columnar`):

1. :func:`~repro.core.columnar.divide_groups_flat` — cut the workload
   into disjoint aggregation groups (~``Msg_group`` bytes, node-aligned
   for serial distributions);
2. :meth:`~repro.core.partition_tree.PartitionTree.build_forest` — for
   every group at once, bisect the file region into domains of
   ≤ ``Msg_ind`` covered bytes;
3. remerging — domains whose candidate hosts lack ``Mem_min`` of memory
   fold into their neighbours (tree surgery, driven by the placer);
4. :func:`~repro.core.placement.place_group` — pick each domain's
   aggregator at run time: an intersecting process on the
   memory-richest eligible host (< ``Nah`` aggregators).

The result is a set of :class:`~repro.io.domains.FileDomain` objects
executed by exactly the same engine as the baseline, so every measured
difference is attributable to these planning decisions.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..fs.pfs import IOKind, SimFile
from ..io.base import IOStrategy
from ..io.context import IOContext
from ..io.result import CollectiveResult
from ..io.rounds import execute_collective
from ..mpi.requests import AccessRequest, FlatAccess, flatten_requests
from .columnar import plan_columnar
from .config import MemoryConsciousConfig
from .plans import CollectivePlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.runtime import FaultRuntime

__all__ = ["MemoryConsciousCollectiveIO"]

# Planning-cost model: building and walking the partition tree plus the
# group-wise metadata analysis is a few microseconds of bookkeeping per
# resulting domain on top of the view allgather.
_PLANNING_SECONDS_PER_DOMAIN = 2.0e-6


class MemoryConsciousCollectiveIO(IOStrategy):
    """The memory-conscious strategy (MC-CIO)."""

    name = "memory-conscious"
    supports_faults = True

    def __init__(self, config: MemoryConsciousConfig | None = None) -> None:
        self.config = config if config is not None else MemoryConsciousConfig()

    def plan(self, ctx: IOContext, flat: FlatAccess) -> CollectivePlan:
        """Run components 1-4 over a columnar workload, without executing.

        The plan carries the tunables it was built under (``msg_ind``,
        ``mem_min``, the pool capacity) so the static verifier can
        re-check the paper's invariants against the right bounds.
        """
        domains, stats, group_sizes = plan_columnar(ctx, flat, self.config)
        pool = ctx.machine.remote_pool
        return CollectivePlan(
            domains=domains,
            stats=stats,
            group_sizes=group_sizes,
            msg_ind=self.config.msg_ind,
            mem_min=self.config.mem_min,
            pool_capacity=pool.capacity if pool is not None else 0,
        )

    def run(
        self,
        ctx: IOContext,
        file: SimFile,
        requests: Sequence[AccessRequest],
        *,
        kind: IOKind,
        plan: CollectivePlan | None = None,
        faults: FaultRuntime | None = None,
    ) -> CollectiveResult:
        """Execute the access; ``plan`` replays a precomputed (possibly
        cached) plan instead of running components 1-4 again.

        The simulated planning charge is identical either way — a cached
        plan saves the *host's* wall-clock, not the simulated machine's.
        """
        if plan is None:
            plan = self.plan(ctx, flatten_requests(requests))
        domains, stats, group_sizes = plan.as_tuple()
        planning_time = (
            ctx.comm.allgather_time(32)  # per-process view/memory summary
            + _PLANNING_SECONDS_PER_DOMAIN * max(len(domains), 1)
        )
        result = execute_collective(
            ctx,
            file,
            requests,
            domains,
            kind=kind,
            strategy=self.name,
            planning_time=planning_time,
            group_sizes=group_sizes,
            faults=faults,
        )
        result.extras.update(
            n_groups=len(group_sizes),
            n_remerges=stats.n_remerges,
            n_fallbacks=stats.n_fallbacks,
            n_borrows=stats.n_borrows,
        )
        if result.telemetry is not None:
            # Planner events, so MC-vs-baseline deltas stay attributable
            # per component in the telemetry alone.
            result.telemetry.count("groups", len(group_sizes))
            result.telemetry.count("remerges", stats.n_remerges)
            result.telemetry.count("fallbacks", stats.n_fallbacks)
            result.telemetry.count("rebalanced", stats.n_rebalanced)
            result.telemetry.count("borrows", stats.n_borrows)
        return result
