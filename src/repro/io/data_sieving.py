"""Data sieving (ROMIO's independent-I/O optimization).

Instead of issuing one request per hole-separated segment, a process
accesses the *contiguous envelope* of its request in sieve-buffer-sized
chunks: reads pull the whole chunk and discard the holes; writes do
read-modify-write (read chunk, overlay the process's bytes, write chunk
back). Fewer, larger requests at the cost of extra volume — the classic
trade collective I/O then improves on by removing the redundant bytes
altogether.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..fs.pfs import IOKind, SimFile
from ..metrics.telemetry import RoundRecord, Telemetry
from ..mpi.requests import AccessRequest
from ..sim.flows import Flow, solve_phase
from ..sim.trace import TraceRecorder
from ..util.intervals import ExtentList
from .base import IOStrategy
from .context import IOContext
from .result import CollectiveResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.runtime import FaultRuntime

__all__ = ["DataSievingIO"]


class DataSievingIO(IOStrategy):
    """Independent I/O through a per-process sieve buffer."""

    name = "data-sieving"

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
        sieve = ctx.hints.sieve_buffer_size
        trace = TraceRecorder()
        caps_read = ctx.capacity_map("read")
        caps_write = ctx.capacity_map("write")

        read_flows: list[Flow] = []
        write_flows: list[Flow] = []
        n_chunks_max = 0
        for req in requests:
            if req.extents.is_empty:
                continue
            node = ctx.comm.node_of(req.rank)
            env = req.extents.envelope()
            # Chunks of the contiguous envelope, each one sieve buffer.
            n_chunks = -(-env.length // sieve)
            n_chunks_max = max(n_chunks_max, n_chunks)
            for c in range(n_chunks):
                lo = env.offset + c * sieve
                length = min(sieve, env.end - lo)
                covered = req.extents.clip(lo, length)
                if covered.is_empty:
                    continue
                chunk = ExtentList.single(lo, length)
                has_holes = covered.total < length
                if kind == "read" or has_holes:
                    # Read the full chunk (sieving read / RMW read).
                    read_flows.extend(
                        ctx.pfs.access_flow_list(
                            node, chunk, "read",
                            label=f"sieve-r:{req.rank}", stream=req.rank,
                        )
                    )
                    caps_read.setdefault(
                        ctx.pfs.stream_key(req.rank), ctx.pfs.stream_capacity("read")
                    )
                    ctx.pfs.account_access(chunk, "read")
                if kind == "write":
                    # Write the chunk back: the whole chunk when sieving
                    # filled holes, just the data when it was solid.
                    out = chunk if has_holes else covered
                    write_flows.extend(
                        ctx.pfs.access_flow_list(
                            node, out, "write",
                            label=f"sieve-w:{req.rank}", stream=req.rank,
                        )
                    )
                    caps_write.setdefault(
                        ctx.pfs.stream_key(req.rank), ctx.pfs.stream_capacity("write")
                    )
                    ctx.pfs.account_access(out, "write")
            # Data path: sieving changes timing, not final contents.
            if ctx.pfs.track_data:
                if kind == "write":
                    file.apply_write(req.extents, req.data)
                else:
                    data = file.apply_read(req.extents)
                    if data is not None:
                        req.scatter_payload(req.extents, data)
            elif kind == "write":
                file.apply_write(req.extents, None)

        latency = ctx.network.message_latency(n_chunks_max)
        io_resource_bytes: dict = {}
        io_bytes = 0
        if read_flows:
            out = solve_phase(read_flows, caps_read, mode=ctx.hints.solver_mode)
            trace.record(
                "sieve_read",
                out.duration + latency,
                bytes_moved=int(sum(f.size for f in read_flows)),
                resource_bytes=out.resource_bytes,
            )
            io_bytes += int(sum(f.size for f in read_flows))
            for key, b in out.resource_bytes.items():
                io_resource_bytes[key] = io_resource_bytes.get(key, 0.0) + b
        if write_flows:
            out = solve_phase(write_flows, caps_write, mode=ctx.hints.solver_mode)
            trace.record(
                "sieve_write",
                out.duration + latency,
                bytes_moved=int(sum(f.size for f in write_flows)),
                resource_bytes=out.resource_bytes,
            )
            io_bytes += int(sum(f.size for f in write_flows))
            for key, b in out.resource_bytes.items():
                io_resource_bytes[key] = io_resource_bytes.get(key, 0.0) + b
        telemetry = Telemetry()
        telemetry.set_capacities(caps_write if kind == "write" else caps_read)
        telemetry.count("sieve_chunks_max", n_chunks_max)
        telemetry.add_round(
            RoundRecord(
                index=0,
                io_bytes=io_bytes,
                latency_s=latency,
                max_messages=n_chunks_max,
                io_resource_bytes=io_resource_bytes,
            )
        )
        return CollectiveResult(
            kind=kind,
            strategy=self.name,
            elapsed=trace.now,
            nbytes=sum(r.nbytes for r in requests),
            n_rounds=1,
            aggregators=[],
            trace=trace,
            telemetry=telemetry,
        )
