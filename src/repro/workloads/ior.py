"""IOR (Interleaved-Or-Random) benchmark patterns.

Reproduces the two classic IOR access modes used in the paper's
evaluation (interleaved reads/writes of a shared file):

* **interleaved** (``segmented=False``; IOR's default with
  ``transferSize < blockSize``): the file is a sequence of *transfer*
  sized slots; slot ``k`` of round ``b`` belongs to process ``k`` — so
  process ``p`` touches offsets ``(b * P + p) * transfer``. Every
  process's data combs across the whole file; maximally noncontiguous.
* **segmented** (``segmented=True``): each process owns one contiguous
  ``block`` of the file (``p * block``) — the serial distribution of
  the paper's Figure 4.
"""

from __future__ import annotations

import numpy as np

from ..mpi.requests import FlatAccess
from ..util.errors import WorkloadError
from ..util.intervals import ExtentList
from ..util.validation import check_positive
from .base import Workload

__all__ = ["IORWorkload"]


class IORWorkload(Workload):
    """IOR shared-file pattern (interleaved or segmented)."""

    name = "ior"

    def __init__(
        self,
        n_procs: int,
        *,
        block_size: int,
        transfer_size: int | None = None,
        segmented: bool = False,
    ) -> None:
        check_positive("n_procs", n_procs)
        check_positive("block_size", block_size)
        self._n_procs = n_procs
        self.block_size = int(block_size)
        self.segmented = segmented
        if transfer_size is None:
            transfer_size = block_size if segmented else block_size // 16 or block_size
        check_positive("transfer_size", transfer_size)
        if block_size % transfer_size != 0:
            raise WorkloadError(
                f"block_size {block_size} not a multiple of transfer_size "
                f"{transfer_size}"
            )
        self.transfer_size = int(transfer_size)
        self.name = "ior-segmented" if segmented else "ior-interleaved"

    @property
    def n_procs(self) -> int:
        return self._n_procs

    @property
    def transfers_per_proc(self) -> int:
        return self.block_size // self.transfer_size

    def extents_for_rank(self, rank: int) -> ExtentList:
        if not 0 <= rank < self._n_procs:
            raise WorkloadError(f"rank {rank} out of range")
        P = self._n_procs
        if self.segmented or P == 1 or self.transfers_per_proc == 1:
            # One contiguous run: the rank's own block, or transfers that
            # touch (a single rank), or a single transfer.
            return ExtentList.single(rank * self.block_size, self.block_size)
        # Ascending, with P - 1 other ranks' transfers between two of
        # this rank's: already a normalized set.
        t = self.transfer_size
        starts = (np.arange(self.transfers_per_proc, dtype=np.int64) * P + rank) * t
        return ExtentList(starts, starts + t, _trusted=True)

    def flat_requests(self) -> FlatAccess:
        """Closed-form columnar pattern — no per-rank objects.

        Both IOR modes have arithmetic offsets, so the whole collective's
        ``(offset, length, rank)`` columns come from broadcasting alone;
        a million ranks flatten in milliseconds.
        """
        P = self._n_procs
        if self.segmented:
            ranks = np.arange(P, dtype=np.int64)
            return FlatAccess(
                ranks * self.block_size,
                np.full(P, self.block_size, dtype=np.int64),
                ranks,
            )
        t = self.transfer_size
        n = self.transfers_per_proc
        ranks = np.repeat(np.arange(P, dtype=np.int64), n)
        rounds = np.tile(np.arange(n, dtype=np.int64), P)
        return FlatAccess(
            (rounds * P + ranks) * t,
            np.full(P * n, t, dtype=np.int64),
            ranks,
        )

    def total_bytes(self) -> int:
        return self._n_procs * self.block_size
