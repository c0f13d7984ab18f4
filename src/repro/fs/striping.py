"""Round-robin file striping (Lustre-style).

A file is cut into fixed ``stripe_unit`` chunks; chunk ``k`` lives on
object storage target ``k mod stripe_count``. The paper's testbed used
Lustre's default round-robin striping with a 1 MiB unit striped over all
I/O servers, and both collective strategies interact with the layout:
file-domain boundaries that respect stripe boundaries avoid splitting a
server request across OSTs.

All the mapping operations here are vectorized over
:class:`~repro.util.intervals.ExtentList` sets: an access set is cut at
stripe-unit boundaries once (:meth:`StripingLayout.ost_load`), and a
single contiguous range is priced by arithmetic without any cut. A batch
of access sets (one round's windows) is cut in one pass too
(:meth:`StripingLayout.window_loads`).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from ..util.errors import StripingError
from ..util.intervals import ExtentList
from ..util.validation import check_positive

__all__ = ["OSTLoad", "OSTRows", "StripingLayout"]


class OSTLoad(NamedTuple):
    """Per-OST totals of one access set (int64 arrays indexed by OST)."""

    bytes: np.ndarray
    #: stripe-unit-confined pieces: server requests without merging
    pieces: np.ndarray
    #: contiguous runs in each OST's object: requests a client issues
    runs: np.ndarray


class OSTRows(NamedTuple):
    """Per-(window, OST) totals of a batch of access sets.

    One row per pair with bytes, ordered by window, then OST; the columns
    are int64 arrays and mean what :class:`OSTLoad`'s do.
    """

    window: np.ndarray
    ost: np.ndarray
    bytes: np.ndarray
    pieces: np.ndarray
    runs: np.ndarray

    def total(self, stripe_count: int) -> OSTLoad:
        """The batch's :class:`OSTLoad`: every window's rows summed per OST."""
        out = []
        for column in (self.bytes, self.pieces, self.runs):
            summed = np.zeros(stripe_count, dtype=np.int64)
            np.add.at(summed, self.ost, column)
            out.append(summed)
        return OSTLoad(*out)


class StripingLayout:
    """Maps byte offsets to OSTs under round-robin striping."""

    __slots__ = ("stripe_unit", "stripe_count")

    def __init__(self, stripe_unit: int, stripe_count: int) -> None:
        self.stripe_unit = check_positive("stripe_unit", int(stripe_unit))
        self.stripe_count = check_positive("stripe_count", int(stripe_count))

    # ------------------------------------------------------------ scalars
    def ost_of(self, offset: int) -> int:
        """OST index holding the byte at ``offset``."""
        if offset < 0:
            raise StripingError(f"negative offset {offset}")
        return (offset // self.stripe_unit) % self.stripe_count

    def align_down(self, offset: int) -> int:
        """Largest stripe-unit boundary <= offset."""
        return (offset // self.stripe_unit) * self.stripe_unit

    def align_up(self, offset: int) -> int:
        """Smallest stripe-unit boundary >= offset."""
        return -(-offset // self.stripe_unit) * self.stripe_unit

    # ------------------------------------------------------------- extents
    def split_pieces(
        self, extents: ExtentList
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cut ``extents`` at stripe-unit boundaries.

        Returns ``(ost_idx, piece_starts, piece_ends)`` in file order;
        each piece lies inside one stripe unit, so it maps to exactly one
        OST and is one server request.
        """
        _, stripe, ps, pe = self._cut(extents.starts, extents.ends)
        return stripe % self.stripe_count, ps, pe

    def _cut(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(extent, stripe, start, end)`` of each stripe-unit piece."""
        unit = self.stripe_unit
        first = starts // unit
        counts = (ends - 1) // unit - first + 1
        owner = np.repeat(np.arange(starts.size), counts)
        stripe = first[owner] + (
            np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        )
        ps = np.maximum(starts[owner], stripe * unit)
        pe = np.minimum(ends[owner], (stripe + 1) * unit)
        return owner, stripe, ps, pe

    def split_by_ost(self, extents: ExtentList) -> list[ExtentList]:
        """Per-OST extent lists (index = OST id). Union equals input."""
        ost, ps, pe = self.split_pieces(extents)
        out: list[ExtentList] = []
        for k in range(self.stripe_count):
            mask = ost == k
            out.append(ExtentList(ps[mask], pe[mask]))
        return out

    def ost_load(self, extents: ExtentList) -> OSTLoad:
        """Per-OST bytes, stripe-unit pieces and object runs, in one split.

        Lustre stores a file's stripe units for one OST back-to-back in a
        single object, so stripe units ``k`` and ``k + stripe_count`` are
        *contiguous on disk*. A client therefore issues one server request
        per contiguous **object** range (``runs``), not per stripe unit
        (``pieces``) — this is what lets large collective buffers amortize
        per-request overhead.
        """
        if len(extents) == 1:
            return self._contiguous_load(int(extents.starts[0]), int(extents.ends[0]))
        return self.window_loads([extents]).total(self.stripe_count)

    def window_loads(self, windows: Sequence[ExtentList]) -> OSTRows:
        """:meth:`ost_load` of every window at once, as busy rows.

        All windows' extents are cut at stripe-unit boundaries together;
        one sort by (window, OST, object offset) then counts every
        window's object runs.
        """
        count = self.stripe_count
        sizes = np.fromiter((len(w) for w in windows), np.int64, len(windows))
        if not sizes.sum():
            empty = np.empty(0, dtype=np.int64)
            return OSTRows(empty, empty, empty, empty, empty)
        starts = np.concatenate([w.starts for w in windows])
        ends = np.concatenate([w.ends for w in windows])
        tag = np.repeat(np.arange(sizes.size), sizes)
        owner, stripe, ps, pe = self._cut(starts, ends)
        group = tag[owner] * count + stripe % count
        unit = self.stripe_unit
        obj_start = (stripe // count) * unit + ps % unit
        obj_end = obj_start + (pe - ps)
        order = np.lexsort((obj_start, group))
        group, obj_start, obj_end = group[order], obj_start[order], obj_end[order]
        new_row = np.ones(group.size, dtype=bool)
        new_row[1:] = group[1:] != group[:-1]
        # Pieces of one window are disjoint, so within a row a run ends
        # wherever the next piece does not start at the previous end.
        new_run = new_row.copy()
        new_run[1:] |= obj_start[1:] != obj_end[:-1]
        row = np.flatnonzero(new_row)
        keys = group[row]
        return OSTRows(
            keys // count,
            keys % count,
            np.add.reduceat(obj_end - obj_start, row),
            np.diff(row, append=group.size),
            np.add.reduceat(new_run.astype(np.int64), row),
        )

    def _contiguous_load(self, lo: int, hi: int) -> OSTLoad:
        """:meth:`ost_load` of the single range ``[lo, hi)``, by arithmetic.

        Its stripe units are consecutive, so each OST holds every
        ``stripe_count``-th one — a single object run — and only the
        first and last unit can be partial.
        """
        unit, count = self.stripe_unit, self.stripe_count
        first, last = lo // unit, (hi - 1) // unit
        n_units = last - first + 1
        pieces = np.full(count, n_units // count, dtype=np.int64)
        pieces[(first + np.arange(n_units % count)) % count] += 1
        nbytes = pieces * unit
        nbytes[first % count] -= lo - first * unit
        nbytes[last % count] -= (last + 1) * unit - hi
        return OSTLoad(nbytes, pieces, (pieces > 0).astype(np.int64))

    def piece_stats(self, extents: ExtentList) -> tuple[np.ndarray, np.ndarray]:
        """Per-OST ``(bytes, n_requests)`` for an access set.

        ``n_requests`` counts stripe-unit-confined contiguous pieces —
        the number of server-side requests the access generates.
        """
        load = self.ost_load(extents)
        return load.bytes, load.pieces

    def object_stats(self, extents: ExtentList) -> tuple[np.ndarray, np.ndarray]:
        """Per-OST ``(bytes, n_contiguous_object_runs)`` for an access set."""
        load = self.ost_load(extents)
        return load.bytes, load.runs

    def osts_touched(self, extents: ExtentList) -> np.ndarray:
        """Sorted unique OST ids an access set lands on."""
        return np.flatnonzero(self.ost_load(extents).bytes)
