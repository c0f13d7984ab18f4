"""Per-process I/O access requests.

An :class:`AccessRequest` is one process's fully-flattened contribution
to a collective operation: its rank, the absolute file extents it
touches, and (optionally, for byte-accurate runs) the packed data
buffer. This is the boundary object between the MPI layer (datatypes,
views) and the collective-I/O strategies.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..util.errors import CommunicatorError
from ..util.intervals import ExtentList
from .fileview import FileView

__all__ = [
    "AccessRequest",
    "FlatAccess",
    "flatten_requests",
    "request_from_view",
    "pattern_bytes",
    "total_bytes",
]


@dataclass(slots=True)
class AccessRequest:
    """One rank's flattened file access (and optional payload)."""

    rank: int
    extents: ExtentList
    data: np.ndarray | None = None  # packed uint8, extent order (writes)

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise CommunicatorError(f"negative rank {self.rank}")
        if self.data is not None:
            self.data = np.asarray(self.data, dtype=np.uint8).ravel()
            if self.data.size != self.extents.total:
                raise CommunicatorError(
                    f"rank {self.rank}: payload {self.data.size} B != "
                    f"extents total {self.extents.total} B"
                )

    @property
    def nbytes(self) -> int:
        return self.extents.total

    def slice_payload(self, piece: ExtentList) -> np.ndarray:
        """Packed bytes of this request for a sub-extent-set ``piece``.

        ``piece`` must be covered by this request's extents. Uses the
        byte-rank of each piece within the request's packed stream.
        """
        if self.data is None:
            raise CommunicatorError(
                f"rank {self.rank}: request carries no data to slice"
            )
        out = np.empty(piece.total, dtype=np.uint8)
        cursor = 0
        for ext in piece:
            rank_lo = self.extents.bytes_before(ext.offset)
            out[cursor : cursor + ext.length] = self.data[
                rank_lo : rank_lo + ext.length
            ]
            cursor += ext.length
        return out

    def scatter_payload(self, piece: ExtentList, data: np.ndarray) -> None:
        """Write ``data`` into this request's buffer at ``piece``'s positions
        (used to deliver read results back to the process)."""
        if self.data is None:
            self.data = np.zeros(self.extents.total, dtype=np.uint8)
        if isinstance(data, (bytes, bytearray)):
            data = np.frombuffer(bytes(data), dtype=np.uint8)
        data = np.asarray(data, dtype=np.uint8).ravel()
        if data.size != piece.total:
            raise CommunicatorError(
                f"rank {self.rank}: scatter payload {data.size} B != "
                f"piece total {piece.total} B"
            )
        cursor = 0
        for ext in piece:
            rank_lo = self.extents.bytes_before(ext.offset)
            self.data[rank_lo : rank_lo + ext.length] = data[
                cursor : cursor + ext.length
            ]
            cursor += ext.length


# eq=False: the generated __eq__ would compare numpy columns with `==`
# and raise on multi-element arrays; identity comparison is the useful one.
@dataclass(frozen=True, slots=True, eq=False)
class FlatAccess:
    """The whole collective flattened into columnar segment arrays.

    Parallel int64 columns ``(offsets, lengths, ranks)``: one row per
    non-empty extent of some rank's request, rows grouped by rank in
    rank-ascending order with each rank's extents in file order (the
    order :class:`~repro.util.intervals.ExtentList` stores them). This is
    the representation the columnar planner operates on — offset/length
    list processing in the flattened style of ROMIO's datatype handling,
    but batched across every process at once.
    """

    offsets: np.ndarray
    lengths: np.ndarray
    ranks: np.ndarray

    def __post_init__(self) -> None:
        for name in ("offsets", "lengths", "ranks"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.offsets.shape == self.lengths.shape == self.ranks.shape):
            raise CommunicatorError("FlatAccess columns must be parallel")
        if np.any(self.lengths <= 0):
            raise CommunicatorError("FlatAccess segments must be non-empty")

    @property
    def n_segments(self) -> int:
        return int(self.offsets.size)

    @property
    def ends(self) -> np.ndarray:
        return self.offsets + self.lengths

    @property
    def total(self) -> int:
        """Total requested bytes (double-counts any inter-rank overlap)."""
        return int(self.lengths.sum())

    def aggregate(self) -> ExtentList:
        """Union of every rank's extents (the combined access set)."""
        if self.n_segments == 0:
            return ExtentList.empty()
        return ExtentList(self.offsets, self.offsets + self.lengths)

    def to_requests(self) -> list[AccessRequest]:
        """Expand back into per-rank objects (tests/interop only)."""
        out: list[AccessRequest] = []
        if self.n_segments == 0:
            return out
        uniq, first = np.unique(self.ranks, return_index=True)
        bounds = np.append(first, self.n_segments)
        for i, rank in enumerate(uniq.tolist()):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            out.append(
                AccessRequest(
                    rank,
                    ExtentList(self.offsets[lo:hi], self.ends[lo:hi]),
                )
            )
        return out


def flatten_requests(requests: Sequence[AccessRequest]) -> FlatAccess:
    """Columnarize per-rank requests into one :class:`FlatAccess`.

    Ranks are emitted in ascending order regardless of input order, so
    two request lists with the same contents flatten identically.
    """
    parts = sorted(
        (r for r in requests if not r.extents.is_empty),
        key=lambda r: r.rank,
    )
    if not parts:
        e = np.empty(0, np.int64)
        return FlatAccess(e, e.copy(), e.copy())
    offsets = np.concatenate([r.extents.starts for r in parts])
    lengths = np.concatenate([r.extents.lengths for r in parts])
    ranks = np.concatenate(
        [np.full(len(r.extents), r.rank, dtype=np.int64) for r in parts]
    )
    return FlatAccess(offsets, lengths, ranks)


def request_from_view(
    rank: int,
    view: FileView,
    *,
    view_offset: int = 0,
    nbytes: int,
    data: np.ndarray | None = None,
) -> AccessRequest:
    """Flatten one process's access through its file view."""
    extents = view.extents_for(view_offset, nbytes)
    return AccessRequest(rank=rank, extents=extents, data=data)


def pattern_bytes(extents: ExtentList, salt: int = 0) -> np.ndarray:
    """Deterministic payload: each byte is a function of its file offset.

    Because the value depends only on (absolute offset, salt), the
    expected file image after any set of non-overlapping writes is
    computable without replaying the writes — the verification trick the
    integration tests rely on.

    Byte ``off`` is ``(off * 2654435761 + salt) & 0xFF`` in uint64
    arithmetic. Only the low 8 bits survive, and they depend only on the
    operands' low 8 bits, so the whole formula runs in wrapping uint8
    arithmetic on ``off mod 256``: one output-sized uint8 array and one
    uint8 temporary, whatever the offsets.
    """
    starts = extents.starts
    lengths = extents.lengths
    # Output position p of extent e holds offset starts[e] + p - pos[e].
    pos = np.cumsum(lengths) - lengths
    shift = ((starts - pos) & 0xFF).astype(np.uint8)
    out = np.resize(np.arange(256, dtype=np.uint8), int(lengths.sum()))
    out += np.repeat(shift, lengths)
    out *= np.uint8(2654435761 & 0xFF)
    out += np.uint8(salt & 0xFF)
    return out


def total_bytes(requests: Sequence[AccessRequest]) -> int:
    """Sum of bytes across requests."""
    return sum(r.nbytes for r in requests)
