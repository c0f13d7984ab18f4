"""Independent (non-collective) I/O.

Every process issues its own flattened request straight at the file
system — no aggregation, no shuffle. This is the strawman collective
I/O was invented to beat: many small noncontiguous requests hit the
OSTs without coalescing, so the per-request overhead dominates. Included
as a context baseline and used by the quickstart example to show the
collective win.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..metrics.telemetry import RoundRecord, Telemetry
from ..sim.flows import Flow, solve_phase
from ..sim.trace import TraceRecorder
from ..fs.pfs import IOKind, SimFile
from ..mpi.requests import AccessRequest
from .base import IOStrategy
from .context import IOContext
from .result import CollectiveResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.runtime import FaultRuntime

__all__ = ["IndependentIO"]


class IndependentIO(IOStrategy):
    """Each process reads/writes its own extents directly."""

    name = "independent"

    def run(
        self,
        ctx: IOContext,
        file: SimFile,
        requests: Sequence[AccessRequest],
        *,
        kind: IOKind,
        faults: FaultRuntime | None = None,
    ) -> CollectiveResult:
        self._check_faults(faults)
        trace = TraceRecorder()
        caps = ctx.capacity_map(kind)
        flows: list[Flow] = []
        max_pieces = 0
        for req in requests:
            if req.extents.is_empty:
                continue
            node = ctx.comm.node_of(req.rank)
            flows.extend(
                ctx.pfs.access_flow_list(
                    node, req.extents, kind, label=f"ind:{req.rank}", stream=req.rank
                )
            )
            caps.setdefault(
                ctx.pfs.stream_key(req.rank), ctx.pfs.stream_capacity(kind)
            )
            ctx.pfs.account_access(req.extents, kind)
            max_pieces = max(max_pieces, len(req.extents))
            if ctx.pfs.track_data:
                if kind == "write":
                    file.apply_write(req.extents, req.data)
                else:
                    data = file.apply_read(req.extents)
                    if data is not None:
                        req.scatter_payload(req.extents, data)
            elif kind == "write":
                file.apply_write(req.extents, None)

        outcome = solve_phase(flows, caps, mode=ctx.hints.solver_mode)
        latency = ctx.network.message_latency(max_pieces)
        nbytes = sum(r.nbytes for r in requests)
        trace.record(
            "independent_io",
            outcome.duration + latency,
            bytes_moved=nbytes,
            resource_bytes=outcome.resource_bytes,
        )
        # Single-phase telemetry: everything lands in one "round" so the
        # breakdown stays comparable with the collective strategies.
        telemetry = Telemetry()
        telemetry.set_capacities(caps)
        telemetry.count("independent_requests", len(flows))
        telemetry.add_round(
            RoundRecord(
                index=0,
                io_bytes=nbytes,
                latency_s=latency,
                max_messages=max_pieces,
                io_resource_bytes=dict(outcome.resource_bytes),
            )
        )
        return CollectiveResult(
            kind=kind,
            strategy=self.name,
            elapsed=trace.now,
            nbytes=nbytes,
            n_rounds=1,
            aggregators=[],
            trace=trace,
            telemetry=telemetry,
        )
