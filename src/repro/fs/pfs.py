"""Parallel file system model (Lustre-like).

Combines the striping layout, per-OST/backplane bandwidth resources, the
per-request service overhead, and (optionally) byte-accurate
:class:`~repro.fs.file_image.FileImage` contents.

The PFS does not time anything itself — it *prices* accesses by emitting
flows (as :class:`~repro.sim.flows.Charges` columns for the round
engine, as :class:`~repro.sim.flows.Flow` objects for the phase solver)
with request-overhead terms that the I/O strategies combine with network
flows into phases. That keeps contention between the shuffle and the
storage path in one model.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from typing import Literal

import numpy as np

from ..cluster.machine import StorageSpec
from ..cluster.network import BISECTION, membw, nic_in, nic_out
from ..sim.flows import Charges, Flow, ResourceIds
from ..util.errors import FileSystemError
from ..util.intervals import ExtentList
from .file_image import FileImage
from .striping import OSTLoad, StripingLayout

__all__ = ["ParallelFileSystem", "SimFile", "ost_key", "PFS_BACKPLANE", "IOKind"]

PFS_BACKPLANE: str = "pfs_backplane"

IOKind = Literal["read", "write"]


def ost_key(index: int) -> tuple[str, int]:
    """Resource key for one object storage target."""
    return ("ost", index)


class SimFile:
    """An open file: logical size plus optional byte-accurate contents."""

    __slots__ = ("name", "pfs", "image", "_size")

    def __init__(self, name: str, pfs: ParallelFileSystem) -> None:
        self.name = name
        self.pfs = pfs
        self.image: FileImage | None = FileImage() if pfs.track_data else None
        self._size = 0

    @property
    def size(self) -> int:
        return self._size if self.image is None else max(self._size, self.image.size)

    def apply_write(self, extents: ExtentList, data: np.ndarray | bytes | None) -> None:
        """Commit a write's *effects*: grow the file, store bytes if tracking."""
        if not extents.is_empty:
            self._size = max(self._size, extents.envelope().end)
        if self.image is not None:
            if data is None:
                raise FileSystemError(
                    f"file {self.name!r} tracks data; write needs a payload"
                )
            self.image.write_extents(extents, data)

    def apply_read(self, extents: ExtentList) -> np.ndarray | None:
        """Fetch bytes for a read (None when data tracking is off)."""
        if self.image is None:
            return None
        return self.image.read_extents(extents)


class ParallelFileSystem:
    """The storage subsystem of one machine."""

    def __init__(self, storage: StorageSpec, *, track_data: bool = False) -> None:
        self.storage = storage
        self.track_data = track_data
        self.layout = StripingLayout(storage.stripe_unit, storage.n_osts)
        self._files: dict[str, SimFile] = {}
        # Per-OST metrics, indexed by OST id.
        self._bytes_written = np.zeros(storage.n_osts, dtype=np.int64)
        self._bytes_read = np.zeros(storage.n_osts, dtype=np.int64)
        self._requests = np.zeros(storage.n_osts, dtype=np.int64)

    # --------------------------------------------------------------- files
    def open(self, name: str) -> SimFile:
        """Open (creating if needed) a file by name."""
        if name not in self._files:
            self._files[name] = SimFile(name, self)
        return self._files[name]

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        self._files.pop(name, None)

    # ------------------------------------------------------------ resources
    def capacity_map(self, kind: IOKind = "write") -> dict[Hashable, float]:
        """Per-OST and backplane capacities for one access direction."""
        factor = self.storage.read_factor if kind == "read" else 1.0
        caps: dict[Hashable, float] = {
            PFS_BACKPLANE: self.storage.backplane * factor
        }
        per_ost = self.storage.ost_bandwidth * factor
        for i in range(self.storage.n_osts):
            caps[ost_key(i)] = per_ost
        return caps

    def access_flows(
        self,
        nodes: np.ndarray,
        windows: Sequence[ExtentList],
        kind: IOKind,
        ids: ResourceIds,
        *,
        streams: np.ndarray,
    ) -> tuple[Charges, OSTLoad]:
        """Charges of one round's windows, each accessed by one client.

        Window ``w`` is accessed from node ``nodes[w]`` by stream
        ``streams[w]`` (see :meth:`stream_key`). All windows are cut at
        stripe boundaries in one pass. Each busy (window, OST) pair is
        one flow of six charges, flows ordered by window, then OST:
        its bytes on the client's memory bus, its NIC, the fabric core,
        the OST (plus the service overhead, see :meth:`_ost_bytes`), the
        PFS backplane and the stream. Segment ``w`` of the returned
        :class:`~repro.sim.flows.Charges` is window ``w``'s flows; the
        :class:`OSTLoad` is every window's load summed, for
        :meth:`account_access`.
        """
        rows = self.layout.window_loads(windows)
        nbytes = rows.bytes.astype(np.float64)
        node = nodes[rows.window]
        nic = nic_out if kind == "write" else nic_in
        key_ids = np.stack(
            [
                ids.column(membw, node),
                ids.column(nic, node),
                np.full(node.size, ids[BISECTION]),
                ids.column(ost_key, rows.ost),
                np.full(node.size, ids[PFS_BACKPLANE]),
                ids.column(self.stream_key, streams[rows.window]),
            ],
            axis=1,
        )
        amounts = np.stack(
            [
                nbytes,
                nbytes,
                nbytes,
                self._ost_bytes(rows.bytes, rows.runs, kind),
                nbytes,
                nbytes,
            ],
            axis=1,
        )
        window = np.arange(len(windows))
        starts = key_ids.shape[1] * np.searchsorted(rows.window, window)
        charges = Charges(key_ids.ravel(), amounts.ravel(), starts, window)
        return charges, rows.total(self.storage.n_osts)

    def access_flow_list(
        self,
        node_id: int,
        access: ExtentList | OSTLoad,
        kind: IOKind,
        *,
        label: str = "",
        stream: Hashable | None = None,
    ) -> list[Flow]:
        """:class:`~repro.sim.flows.Flow` objects for one client accessing ``access``.

        ``access`` is an extent set, or its :meth:`StripingLayout.ost_load`
        when the caller also accounts it (so the set is split once). One
        flow per busy OST, crossing what :meth:`access_flows` charges:
        the client's memory bus, its NIC (injection for writes, ejection
        for reads), the fabric core, the OST and the PFS backplane, plus
        the ``stream`` resource when one is given (add the matching
        capacity with :meth:`stream_key` / :meth:`stream_capacity`).
        """
        load = self._load(access)
        busy = np.flatnonzero(load.bytes)
        nic = nic_out(node_id) if kind == "write" else nic_in(node_id)
        stream_res = (self.stream_key(stream),) if stream is not None else ()
        flows: list[Flow] = []
        for ost, nbytes, runs in zip(
            busy.tolist(), load.bytes[busy].tolist(), load.runs[busy].tolist()
        ):
            key = ost_key(ost)
            flows.append(
                Flow(
                    size=float(nbytes),
                    resources=(membw(node_id), nic, BISECTION, key, PFS_BACKPLANE)
                    + stream_res,
                    label=label or f"{kind}:node{node_id}:ost{ost}",
                    resource_sizes={key: self._ost_bytes(nbytes, runs, kind)},
                )
            )
        return flows

    def _ost_bytes(
        self, nbytes: int | np.ndarray, runs: int | np.ndarray, kind: IOKind
    ) -> float | np.ndarray:
        """What ``nbytes`` in ``runs`` object runs charge their OST.

        Each contiguous object run pays the per-request service overhead
        at the OST; it is expressed as extra effective bytes, so the flow
        solver sees one consistent load. Takes integers or int64 arrays
        (one element per flow) and does the same float operations on
        either.
        """
        factor = self.storage.read_factor if kind == "read" else 1.0
        per_ost_cap = self.storage.ost_bandwidth * factor
        return nbytes + runs * self.storage.request_overhead * per_ost_cap

    def _load(self, access: ExtentList | OSTLoad) -> OSTLoad:
        return self.layout.ost_load(access) if isinstance(access, ExtentList) else access

    @staticmethod
    def stream_key(stream: Hashable) -> tuple[str, Hashable]:
        """Resource key for one client process's I/O stream."""
        return ("client_stream", stream)

    def stream_capacity(self, kind: IOKind = "write") -> float:
        """Capacity to register for each stream key used in a phase."""
        factor = self.storage.read_factor if kind == "read" else 1.0
        return self.storage.client_stream_bandwidth * factor

    # ------------------------------------------------------------ accounting
    def account_access(self, access: ExtentList | OSTLoad, kind: IOKind) -> None:
        """Record bytes/requests per OST for metrics."""
        load = self._load(access)
        if kind == "write":
            self._bytes_written += load.bytes
        else:
            self._bytes_read += load.bytes
        self._requests += load.pieces

    def ost_utilization(self) -> np.ndarray:
        """Total bytes served per OST (reads + writes)."""
        return self._bytes_read + self._bytes_written

    def total_requests(self) -> int:
        return int(self._requests.sum())
