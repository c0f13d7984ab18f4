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
single contiguous range is priced by arithmetic without any cut.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..util.errors import StripingError
from ..util.intervals import ExtentList
from ..util.validation import check_positive

__all__ = ["OSTLoad", "StripingLayout"]


class OSTLoad(NamedTuple):
    """Per-OST totals of one access set (int64 arrays indexed by OST)."""

    bytes: np.ndarray
    #: stripe-unit-confined pieces: server requests without merging
    pieces: np.ndarray
    #: contiguous runs in each OST's object: requests a client issues
    runs: np.ndarray


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
        unit = self.stripe_unit
        starts, ends = extents.starts, extents.ends
        first = starts // unit
        counts = (ends - 1) // unit - first + 1
        total = int(counts.sum())
        owner = np.repeat(np.arange(starts.size), counts)
        offset = np.cumsum(counts) - counts
        stripe = first[owner] + (np.arange(total) - offset[owner])
        ps = np.maximum(starts[owner], stripe * unit)
        pe = np.minimum(ends[owner], (stripe + 1) * unit)
        return stripe % self.stripe_count, ps, pe

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
        count = self.stripe_count
        if len(extents) == 1:
            return self._contiguous_load(int(extents.starts[0]), int(extents.ends[0]))
        ost, ps, pe = self.split_pieces(extents)
        unit = self.stripe_unit
        obj_start = (ps // unit // count) * unit + ps % unit
        obj_end = obj_start + (pe - ps)
        order = np.lexsort((obj_start, ost))
        ost, obj_start, obj_end = ost[order], obj_start[order], obj_end[order]
        # Pieces are disjoint, so within one OST a run ends wherever the
        # next piece does not start exactly at the previous piece's end.
        new_run = np.ones(ost.size, dtype=bool)
        new_run[1:] = (ost[1:] != ost[:-1]) | (obj_start[1:] != obj_end[:-1])
        nbytes = np.zeros(count, dtype=np.int64)
        np.add.at(nbytes, ost, obj_end - obj_start)
        return OSTLoad(
            nbytes,
            np.bincount(ost, minlength=count),
            np.bincount(ost[new_run], minlength=count),
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
