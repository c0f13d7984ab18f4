"""Byte-extent algebra.

Everything in collective I/O is a set of file extents: a process's
flattened request, an aggregator's file domain, a stripe, an aggregation
group. This module provides :class:`Extent` (a single ``[offset,
offset+length)`` half-open range) and :class:`ExtentList` (an immutable,
normalized set of extents backed by numpy arrays) with the vectorized
set operations the middleware needs: intersection, subtraction, gap
computation, splitting at boundaries, and shifting.

Normalization invariant: extents are sorted by start, non-empty,
non-overlapping, and *coalesced* (no two extents touch). All operations
preserve the invariant, which property tests in
``tests/util/test_intervals.py`` verify.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ReproError

__all__ = ["Extent", "ExtentList", "split_segments_to_bins"]

_EMPTY = None  # singleton, created lazily by ExtentList.empty()


@dataclass(frozen=True, slots=True)
class Extent:
    """A half-open byte range ``[offset, offset + length)`` in a file."""

    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ReproError(f"negative extent length: {self.length}")
        if self.offset < 0:
            raise ReproError(f"negative extent offset: {self.offset}")

    @property
    def end(self) -> int:
        """One past the last byte covered."""
        return self.offset + self.length

    @property
    def is_empty(self) -> bool:
        return self.length == 0

    def overlaps(self, other: Extent) -> bool:
        """True when the two ranges share at least one byte."""
        return self.offset < other.end and other.offset < self.end

    def contains(self, offset: int) -> bool:
        """True when ``offset`` falls inside this extent."""
        return self.offset <= offset < self.end

    def intersect(self, other: Extent) -> Extent:
        """Overlap of the two ranges (possibly empty, anchored at lo)."""
        lo = max(self.offset, other.offset)
        hi = min(self.end, other.end)
        if hi <= lo:
            return Extent(lo if lo >= 0 else 0, 0)
        return Extent(lo, hi - lo)

    def shift(self, delta: int) -> Extent:
        """The same range translated by ``delta`` bytes."""
        return Extent(self.offset + delta, self.length)

    def split_at(self, offset: int) -> tuple["Extent", "Extent"]:
        """Cut into ``[offset0, offset)`` and ``[offset, end)`` pieces."""
        if not (self.offset < offset < self.end):
            raise ReproError(
                f"split point {offset} not strictly inside {self!r}"
            )
        return (
            Extent(self.offset, offset - self.offset),
            Extent(offset, self.end - offset),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.offset}, {self.end})"


def _normalize(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort, drop empties, and coalesce overlapping/touching ranges."""
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]
    if starts.size == 0:
        return starts, ends
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    # Running maximum of ends tells us where a new disjoint run begins:
    # a range starts a new run iff its start is greater than every end
    # seen so far (strictly: > max end means a gap; == means touching,
    # which we coalesce too).
    run_end = np.maximum.accumulate(ends)
    new_run = np.empty(starts.size, dtype=bool)
    new_run[0] = True
    new_run[1:] = starts[1:] > run_end[:-1]
    run_id = np.cumsum(new_run) - 1
    n_runs = run_id[-1] + 1
    out_starts = starts[new_run]
    out_ends = np.zeros(n_runs, dtype=np.int64)
    np.maximum.at(out_ends, run_id, ends)
    return out_starts, out_ends


class ExtentList:
    """Immutable normalized set of byte extents.

    Construct via :meth:`from_pairs`, :meth:`from_arrays`, or
    :meth:`single`. Instances behave as a value type: equality compares
    contents, and all mutating-style operations return new lists.
    """

    __slots__ = ("_starts", "_ends", "_total")

    def __init__(self, starts: np.ndarray, ends: np.ndarray, *, _trusted: bool = False):
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        if starts.shape != ends.shape or starts.ndim != 1:
            raise ReproError("starts/ends must be 1-D arrays of equal length")
        if not _trusted:
            if np.any(starts < 0):
                raise ReproError("negative offsets are not valid file extents")
            starts, ends = _normalize(starts, ends)
        self._starts = starts
        self._ends = ends
        self._total = -1  # computed on first use; the arrays never change
        self._starts.setflags(write=False)
        self._ends.setflags(write=False)

    # ---------------------------------------------------------------- ctors
    @classmethod
    def empty(cls) -> ExtentList:
        """The empty set (a shared singleton — instances are immutable)."""
        global _EMPTY
        if _EMPTY is None:
            _EMPTY = cls(
                np.empty(0, np.int64), np.empty(0, np.int64), _trusted=True
            )
        return _EMPTY

    @classmethod
    def single(cls, offset: int, length: int) -> ExtentList:
        """A list holding one extent (or the empty list if length==0)."""
        if length < 0 or offset < 0:
            raise ReproError(f"invalid extent ({offset}, {length})")
        if length == 0:
            return cls.empty()
        return cls(
            np.asarray([offset], np.int64),
            np.asarray([offset + length], np.int64),
            _trusted=True,
        )

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> ExtentList:
        """Build from ``(offset, length)`` pairs (any order, may overlap)."""
        pairs = list(pairs)
        if not pairs:
            return cls.empty()
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ReproError("from_pairs expects (offset, length) tuples")
        if np.any(arr[:, 1] < 0):
            raise ReproError("negative lengths are not valid extents")
        return cls(arr[:, 0], arr[:, 0] + arr[:, 1])

    @classmethod
    def from_arrays(cls, offsets: np.ndarray, lengths: np.ndarray) -> ExtentList:
        """Build from parallel offset/length arrays."""
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if np.any(lengths < 0):
            raise ReproError("negative lengths are not valid extents")
        return cls(offsets, offsets + lengths)

    @classmethod
    def from_extent(cls, extent: Extent) -> ExtentList:
        return cls.single(extent.offset, extent.length)

    @classmethod
    def union_all(cls, lists: Sequence["ExtentList"]) -> ExtentList:
        """Union of many lists (normalizing once)."""
        lists = [el for el in lists if len(el)]
        if not lists:
            return cls.empty()
        starts = np.concatenate([el._starts for el in lists])
        ends = np.concatenate([el._ends for el in lists])
        return cls(starts, ends)

    # ------------------------------------------------------------ accessors
    @property
    def starts(self) -> np.ndarray:
        """Sorted extent start offsets (read-only view)."""
        return self._starts

    @property
    def ends(self) -> np.ndarray:
        """Sorted extent end offsets (read-only view)."""
        return self._ends

    @property
    def lengths(self) -> np.ndarray:
        return self._ends - self._starts

    @property
    def total(self) -> int:
        """Total number of bytes covered."""
        if self._total < 0:
            self._total = int((self._ends - self._starts).sum())
        return self._total

    @property
    def is_empty(self) -> bool:
        return self._starts.size == 0

    def envelope(self) -> Extent:
        """Smallest single extent covering the whole list."""
        if self.is_empty:
            return Extent(0, 0)
        lo = int(self._starts[0])
        hi = int(self._ends[-1])
        return Extent(lo, hi - lo)

    def __len__(self) -> int:
        return int(self._starts.size)

    def __iter__(self) -> Iterator[Extent]:
        for s, e in zip(self._starts.tolist(), self._ends.tolist()):
            yield Extent(s, e - s)

    def __getitem__(self, i: int) -> Extent:
        s = int(self._starts[i])
        e = int(self._ends[i])
        return Extent(s, e - s)

    def to_pairs(self) -> list[tuple[int, int]]:
        return [(int(s), int(e - s)) for s, e in zip(self._starts, self._ends)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtentList):
            return NotImplemented
        return bool(
            np.array_equal(self._starts, other._starts)
            and np.array_equal(self._ends, other._ends)
        )

    def __hash__(self) -> int:
        return hash((self._starts.tobytes(), self._ends.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"[{s},{e})" for s, e in zip(self._starts, self._ends))
        if len(inner) > 120:
            inner = inner[:117] + "..."
        return f"ExtentList({inner}, total={self.total})"

    # ------------------------------------------------------------ set algebra
    def intersect(self, other: ExtentList) -> ExtentList:
        """Byte-wise intersection of two extent sets. O(n + m + k)."""
        if self.is_empty or other.is_empty:
            return ExtentList.empty()
        # Fast path: intersecting with a single range is a clip.
        if other._starts.size == 1:
            return self.clip(
                int(other._starts[0]), int(other._ends[0] - other._starts[0])
            )
        if self._starts.size == 1:
            return other.clip(
                int(self._starts[0]), int(self._ends[0] - self._starts[0])
            )
        a_s, a_e = self._starts, self._ends
        b_s, b_e = other._starts, other._ends
        # For each extent i of self, overlapping extents of other form the
        # contiguous index range [lo[i], hi[i]).
        lo = np.searchsorted(b_e, a_s, side="right")
        hi = np.searchsorted(b_s, a_e, side="left")
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        if total == 0:
            return ExtentList.empty()
        idx_a = np.repeat(np.arange(a_s.size), counts)
        first = np.cumsum(counts) - counts
        pos = np.arange(total) - np.repeat(first, counts)
        idx_b = np.repeat(lo, counts) + pos
        out_s = np.maximum(a_s[idx_a], b_s[idx_b])
        out_e = np.minimum(a_e[idx_a], b_e[idx_b])
        # Intersection of two normalized lists is already sorted & disjoint,
        # but pieces may touch across run boundaries; normalize to coalesce.
        return ExtentList(out_s, out_e)

    def clip(self, offset: int, length: int) -> ExtentList:
        """Intersection with the single range ``[offset, offset+length)``."""
        if length <= 0 or self.is_empty:
            return ExtentList.empty()
        end = offset + length
        lo = np.searchsorted(self._ends, offset, side="right")
        hi = np.searchsorted(self._starts, end, side="left")
        if hi <= lo:
            return ExtentList.empty()
        out_s = self._starts[lo:hi].copy()
        out_e = self._ends[lo:hi].copy()
        out_s[0] = max(out_s[0], offset)
        out_e[-1] = min(out_e[-1], end)
        return ExtentList(out_s, out_e, _trusted=True)

    def overlap_bytes(self, other: ExtentList) -> int:
        """Number of bytes present in both sets (without materializing)."""
        return self.intersect(other).total

    def subtract(self, other: ExtentList) -> ExtentList:
        """Bytes of self not covered by other."""
        if self.is_empty or other.is_empty:
            return self
        env = self.envelope()
        return self.intersect(other.complement(env.offset, env.end))

    def complement(self, lo: int, hi: int) -> ExtentList:
        """Gaps of this set within ``[lo, hi)``."""
        if hi <= lo:
            return ExtentList.empty()
        clipped = self.clip(lo, hi - lo)
        if clipped.is_empty:
            return ExtentList.single(lo, hi - lo)
        gap_s = np.concatenate(([lo], clipped._ends))
        gap_e = np.concatenate((clipped._starts, [hi]))
        return ExtentList(gap_s, gap_e)

    def union(self, other: ExtentList) -> ExtentList:
        return ExtentList.union_all([self, other])

    def shift(self, delta: int) -> ExtentList:
        """Translate every extent by ``delta`` bytes (result must be >= 0)."""
        if self.is_empty:
            return self
        if int(self._starts[0]) + delta < 0:
            raise ReproError("shift would produce negative offsets")
        return ExtentList(self._starts + delta, self._ends + delta, _trusted=True)

    def split_to_bins(
        self, bin_bounds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cut the set at bin boundaries and assign each piece to its bin.

        ``bin_bounds`` is a sorted array of ``nbins + 1`` offsets defining
        contiguous bins ``[bin_bounds[k], bin_bounds[k+1])`` — stripe units,
        file domains, or aggregation groups. Bytes outside
        ``[bin_bounds[0], bin_bounds[-1])`` are dropped.

        Returns ``(bin_idx, piece_starts, piece_ends)`` parallel arrays;
        pieces are sorted by start and the union of pieces equals the
        clipped byte set (verified by property tests).
        """
        bin_bounds = np.asarray(bin_bounds, dtype=np.int64)
        if bin_bounds.size < 2:
            raise ReproError("split_to_bins requires at least one bin")
        clipped = self.clip(
            int(bin_bounds[0]), int(bin_bounds[-1] - bin_bounds[0])
        )
        if clipped.is_empty:
            e = np.empty(0, np.int64)
            return e, e.copy(), e.copy()
        s, ends = clipped._starts, clipped._ends
        interior = bin_bounds[1:-1]
        # Cuts strictly inside each extent:
        lo = np.searchsorted(interior, s, side="right")
        hi = np.searchsorted(interior, ends - 1, side="right")
        pieces = (hi - lo) + 1
        total = int(pieces.sum())
        idx = np.repeat(np.arange(s.size), pieces)
        first = np.cumsum(pieces) - pieces
        pos = np.arange(total) - np.repeat(first, pieces)
        cut_index = np.repeat(lo, pieces) + pos  # index into `interior`
        if interior.size:
            # Clipping only sanitizes the branch np.where discards: for
            # pos > 0, cut_index - 1 is always in range, and for
            # pos < last, cut_index is always in range.
            left_cut = interior[np.clip(cut_index - 1, 0, interior.size - 1)]
            right_cut = interior[np.clip(cut_index, 0, interior.size - 1)]
        else:
            left_cut = s[idx]
            right_cut = ends[idx]
        piece_s = np.where(pos == 0, s[idx], left_cut)
        piece_e = np.where(pos == pieces[idx] - 1, ends[idx], right_cut)
        bin_idx = np.searchsorted(bin_bounds, piece_s, side="right") - 1
        return bin_idx.astype(np.int64), piece_s, piece_e

    def covers(self, other: ExtentList) -> bool:
        """True when every byte of ``other`` is in this set."""
        return other.subtract(self).is_empty

    def slice_bytes(self, lo_rank: int, hi_rank: int) -> ExtentList:
        """Bytes whose *rank* in the packed stream lies in [lo_rank, hi_rank).

        The rank of a byte is its position when the set's extents are
        concatenated in order. This is how a round engine windows an
        aggregator's file-domain coverage into buffer-sized chunks, and
        how file views slice a filetype tile.
        """
        if hi_rank <= lo_rank or self.is_empty:
            return ExtentList.empty()
        lengths = self._ends - self._starts
        cum_hi = np.cumsum(lengths)
        cum_lo = cum_hi - lengths
        sel = (cum_hi > lo_rank) & (cum_lo < hi_rank)
        if not sel.any():
            return ExtentList.empty()
        seg_starts = self._starts[sel]
        seg_lo = cum_lo[sel]
        seg_hi = cum_hi[sel]
        take_lo = np.maximum(seg_lo, lo_rank)
        take_hi = np.minimum(seg_hi, hi_rank)
        out_starts = seg_starts + (take_lo - seg_lo)
        out_ends = out_starts + (take_hi - take_lo)
        return ExtentList(out_starts, out_ends, _trusted=True)

    def bytes_before(self, offset: int) -> int:
        """Number of covered bytes strictly below ``offset``.

        This is the rank of ``offset`` in the linearized byte stream of
        the set — the workhorse for mapping file extents back to positions
        in a process's packed memory buffer.
        """
        i = np.searchsorted(self._starts, offset, side="right")
        if i == 0:
            return 0
        full = int((self._ends[: i - 1] - self._starts[: i - 1]).sum())
        partial = min(int(self._ends[i - 1]), offset) - int(self._starts[i - 1])
        return full + max(partial, 0)


def split_segments_to_bins(
    starts: np.ndarray,
    ends: np.ndarray,
    bin_bounds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut raw segments at bin boundaries, keeping per-segment identity.

    The columnar counterpart of :meth:`ExtentList.split_to_bins` for
    segments that are *not* a normalized set: inputs may overlap, belong
    to different owners, and arrive in any order. Each segment is cut at
    every interior bin boundary it crosses; pieces outside
    ``[bin_bounds[0], bin_bounds[-1])`` are dropped.

    Returns ``(bin_idx, piece_starts, piece_ends, src_idx)`` parallel
    arrays where ``src_idx`` maps each piece back to its input segment —
    which is what lets callers carry owner columns (rank, node) through
    the cut. Pieces inherit input order (segment-major) and all have
    positive length.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    bin_bounds = np.asarray(bin_bounds, dtype=np.int64)
    if bin_bounds.size < 2:
        raise ReproError("split_segments_to_bins requires at least one bin")
    lo_b, hi_b = int(bin_bounds[0]), int(bin_bounds[-1])
    s = np.maximum(starts, lo_b)
    e = np.minimum(ends, hi_b)
    keep = e > s
    src = np.flatnonzero(keep)
    if src.size == 0:
        empty = np.empty(0, np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    s, e = s[keep], e[keep]
    interior = bin_bounds[1:-1]
    # Cuts strictly inside each segment (same sweep as split_to_bins).
    lo = np.searchsorted(interior, s, side="right")
    hi = np.searchsorted(interior, e - 1, side="right")
    pieces = (hi - lo) + 1
    total = int(pieces.sum())
    idx = np.repeat(np.arange(s.size), pieces)
    first = np.cumsum(pieces) - pieces
    pos = np.arange(total) - np.repeat(first, pieces)
    cut_index = np.repeat(lo, pieces) + pos
    if interior.size:
        left_cut = interior[np.clip(cut_index - 1, 0, interior.size - 1)]
        right_cut = interior[np.clip(cut_index, 0, interior.size - 1)]
    else:
        left_cut = s[idx]
        right_cut = e[idx]
    piece_s = np.where(pos == 0, s[idx], left_cut)
    piece_e = np.where(pos == pieces[idx] - 1, e[idx], right_cut)
    bin_idx = np.searchsorted(bin_bounds, piece_s, side="right") - 1
    return bin_idx.astype(np.int64), piece_s, piece_e, src[idx]
