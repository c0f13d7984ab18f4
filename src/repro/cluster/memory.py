"""Per-node memory accounting.

Aggregation buffers are the scarce resource in this paper. Each node's
:class:`MemoryManager` tracks capacity, a baseline reservation (OS +
application working set), and the live set of named allocations, so
collective-I/O strategies can ask *how much is actually available here*
and so the metrics layer can report per-node high-watermarks and the
variance across nodes.

Allocations never fail silently: an allocation beyond available memory
raises unless ``allow_oversubscribe`` is set, in which case the manager
records the overflow — the cost model turns overflow into paging
penalties rather than hard failure, mirroring a real node that starts
swapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.errors import MemoryPressureError
from ..util.validation import check_non_negative, check_positive

__all__ = ["MemoryManager", "Allocation"]


@dataclass(frozen=True, slots=True)
class Allocation:
    """A named slice of node memory (an aggregation buffer, typically)."""

    node_id: int
    tag: str
    nbytes: int


class MemoryManager:
    """Tracks one node's memory capacity and live allocations."""

    __slots__ = ("node_id", "capacity", "_reserved", "_allocs", "_in_use", "_watermark")

    def __init__(self, node_id: int, capacity: int, reserved: int = 0) -> None:
        self.node_id = node_id
        self.capacity = check_positive("capacity", int(capacity))
        reserved = check_non_negative("reserved", int(reserved))
        if reserved > capacity:
            raise MemoryPressureError(
                f"node {node_id}: reserved {reserved} exceeds capacity {capacity}"
            )
        self._reserved = reserved
        self._allocs: dict[str, Allocation] = {}
        self._in_use = 0  # sum of the live allocations' bytes
        self._watermark = 0

    # ------------------------------------------------------------- queries
    @property
    def reserved(self) -> int:
        """Bytes held by OS + application (not usable for aggregation)."""
        return self._reserved

    @property
    def in_use(self) -> int:
        """Bytes currently held by live allocations."""
        return self._in_use

    @property
    def available(self) -> int:
        """Bytes an aggregator buffer could still claim (may be negative
        when oversubscribed)."""
        return self.capacity - self._reserved - self.in_use

    @property
    def high_watermark(self) -> int:
        """Largest ``in_use`` observed over the manager's lifetime."""
        return self._watermark

    @property
    def oversubscribed_bytes(self) -> int:
        """How far past capacity the node currently is (0 when healthy)."""
        return max(0, -self.available)

    def allocation(self, tag: str) -> Allocation | None:
        return self._allocs.get(tag)

    # ----------------------------------------------------------- mutation
    def set_reserved(self, reserved: int) -> None:
        """Adjust the baseline reservation (used to inject variance)."""
        reserved = check_non_negative("reserved", int(reserved))
        if reserved > self.capacity:
            raise MemoryPressureError(
                f"node {self.node_id}: reserved {reserved} exceeds "
                f"capacity {self.capacity}"
            )
        self._reserved = reserved

    def allocate(
        self, tag: str, nbytes: int, *, allow_oversubscribe: bool = False
    ) -> Allocation:
        """Claim ``nbytes`` under ``tag``; tags must be unique while live."""
        nbytes = check_non_negative("nbytes", int(nbytes))
        if tag in self._allocs:
            raise MemoryPressureError(
                f"node {self.node_id}: allocation tag {tag!r} already live"
            )
        if nbytes > self.available and not allow_oversubscribe:
            raise MemoryPressureError(
                f"node {self.node_id}: requested {nbytes} B but only "
                f"{self.available} B available"
            )
        alloc = Allocation(self.node_id, tag, nbytes)
        self._allocs[tag] = alloc
        self._in_use += nbytes
        self._watermark = max(self._watermark, self._in_use)
        return alloc

    def release(self, tag: str) -> None:
        """Release a live allocation."""
        if tag not in self._allocs:
            raise MemoryPressureError(
                f"node {self.node_id}: releasing unknown tag {tag!r}"
            )
        self._in_use -= self._allocs.pop(tag).nbytes

    def release_all(self) -> None:
        """Drop every live allocation (end of one collective operation)."""
        self._allocs.clear()
        self._in_use = 0

    def reset_watermark(self) -> None:
        self._watermark = self.in_use
