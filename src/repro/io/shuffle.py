"""The data-shuffle phase: who sends what to which aggregator.

For one round, each process intersects its request with each
aggregator's round window; the non-empty pieces become point-to-point
transfers. Intra-node pieces are memory copies (charged twice on the
node's memory bus); inter-node pieces cross both NICs and the fabric
core — the distinction that makes aggregator *placement* matter.

The intersections are columnar. :class:`ExchangeIndex` flattens the
requests into (request, start, end) segments once per run and cuts them
to every domain's coverage; each domain keeps its segments sorted by
start, with a running maximum of their ends. A round window's pieces are
then one ``searchsorted`` range per window extent, with only the
segments at the range's ends clipped.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from ..cluster.network import BISECTION, membw, nic_in, nic_out
from ..fs.pfs import IOKind
from ..mpi.comm import SimComm
from ..mpi.requests import AccessRequest
from ..sim.flows import Flow
from ..util.intervals import ExtentList
from .domains import FileDomain

__all__ = [
    "ExchangeIndex",
    "ExchangePiece",
    "plan_exchange",
    "shuffle_flows",
]


class ExchangePiece(NamedTuple):
    """Bytes one process exchanges with one aggregator in one round."""

    src_rank: int  # the requesting process
    agg_rank: int  # the aggregator
    domain_index: int
    nbytes: int
    #: the bytes themselves; built only for the byte-accurate data path
    piece: ExtentList | None = None


class _Segments:
    """One domain's request ∩ coverage segments, sorted by start.

    ``cand[k]`` is segment ``k``'s candidate: the position, in request
    order, of the request it came from among the requests that touch
    the domain; ``ranks[c]`` is candidate ``c``'s source rank.
    """

    __slots__ = ("starts", "ends", "run_end", "cand", "ranks")

    def __init__(self, starts, ends, request: np.ndarray, rank_of: np.ndarray):
        order = np.argsort(starts, kind="stable")
        self.starts = starts[order]
        self.ends = ends[order]
        # Segments of different requests may overlap (reads), so the ends
        # are not sorted; their running maximum is, and bounds the range.
        self.run_end = np.maximum.accumulate(self.ends)
        touching = np.unique(request)
        self.cand = np.searchsorted(touching, request[order])
        self.ranks = rank_of[touching].tolist()

    def cut(self, window: ExtentList) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cand, start, end)`` of the window's pieces, by candidate then start."""
        w_lo, w_hi = window.starts, window.ends
        lo = np.searchsorted(self.run_end, w_lo, side="right")
        hi = np.searchsorted(self.starts, w_hi, side="left")
        # Window extents are sorted and disjoint, so this expansion is
        # already in start order.
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        ext = np.repeat(np.arange(w_lo.size), counts)
        seg = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(total)
        starts = np.maximum(self.starts[seg], w_lo[ext])
        ends = np.minimum(self.ends[seg], w_hi[ext])
        # Segments inside the range may still end before the window
        # starts (the range is bounded by the running maximum of ends).
        keep = ends > starts
        cand = self.cand[seg][keep]
        order = np.argsort(cand, kind="stable")
        return cand[order], starts[keep][order], ends[keep][order]


class ExchangeIndex:
    """Every domain's request pieces, indexed once per run.

    ``parts[d]`` lists the original domains whose coverage domain ``d``
    serves now, in order: ``[d]`` until a remerge hands it another
    domain's remaining coverage, which :meth:`remerge` appends.
    """

    def __init__(
        self, requests: Sequence[AccessRequest], domains: Sequence[FileDomain]
    ) -> None:
        lists = [r.extents for r in requests]
        sizes = np.asarray([len(el) for el in lists], dtype=np.int64)
        rank_of = np.asarray([r.rank for r in requests], dtype=np.int64)
        request = np.repeat(np.arange(len(lists)), sizes)
        starts = np.concatenate([el.starts for el in lists] or [np.empty(0, np.int64)])
        ends = np.concatenate([el.ends for el in lists] or [np.empty(0, np.int64)])
        order = np.argsort(starts, kind="stable")
        request, starts, ends = request[order], starts[order], ends[order]
        run_end = np.maximum.accumulate(ends)
        self.aggregators = [d.aggregator for d in domains]
        self.segments = [
            self._cover(request, starts, ends, run_end, d.coverage, rank_of)
            for d in domains
        ]
        self.parts: list[list[int]] = [[d] for d in range(len(domains))]

    @staticmethod
    def _cover(request, starts, ends, run_end, coverage: ExtentList, rank_of):
        """Request segments cut to one coverage."""
        env = coverage.envelope()
        sel = slice(
            int(np.searchsorted(run_end, env.offset, side="right")),
            int(np.searchsorted(starts, env.end, side="left")),
        )
        c_lo, c_hi = coverage.starts, coverage.ends
        request, starts, ends = request[sel], starts[sel], ends[sel]
        # Coverage extents each segment overlaps: [first, last).
        first = np.searchsorted(c_hi, starts, side="right")
        last = np.searchsorted(c_lo, ends, side="left")
        counts = np.maximum(last - first, 0)
        total = int(counts.sum())
        seg = np.repeat(np.arange(starts.size), counts)
        ext = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(total)
        return _Segments(
            np.maximum(starts[seg], c_lo[ext]),
            np.minimum(ends[seg], c_hi[ext]),
            request[seg],
            rank_of,
        )

    def remerge(self, src: int, taker: int) -> None:
        """Domain ``taker`` takes over everything domain ``src`` serves."""
        self.parts[taker] = self.parts[taker] + self.parts[src]
        self.parts[src] = []

    def pieces(
        self, d: int, window: ExtentList, *, with_extents: bool = False
    ) -> list[ExchangePiece]:
        """Domain ``d``'s pieces for one window, per part in candidate order."""
        out: list[ExchangePiece] = []
        agg = self.aggregators[d]
        for part in self.parts[d]:
            segs = self.segments[part]
            cand, starts, ends = segs.cut(window)
            # Runs of equal candidates are one piece each.
            runs: list[list[int]] = []  # [candidate, first segment, bytes]
            for k, (c, n) in enumerate(zip(cand.tolist(), (ends - starts).tolist())):
                if runs and runs[-1][0] == c:
                    runs[-1][2] += n
                else:
                    runs.append([c, k, n])
            for j, (c, first, nbytes) in enumerate(runs):
                piece = None
                if with_extents:
                    last = runs[j + 1][1] if j + 1 < len(runs) else cand.size
                    piece = ExtentList(starts[first:last], ends[first:last])
                out.append(ExchangePiece(segs.ranks[c], agg, d, nbytes, piece))
        return out


def plan_exchange(
    index: ExchangeIndex,
    windows: Sequence[ExtentList],
    *,
    with_extents: bool = False,
) -> list[ExchangePiece]:
    """Every domain's pieces for its round window ``windows[d]``.

    Pieces come per domain, then per part (the domain's own coverage
    first, remerged coverage after), then per source request in request
    order. ``with_extents`` also builds each piece's extent list.
    """
    pieces: list[ExchangePiece] = []
    for d, window in enumerate(windows):
        if not window.is_empty:
            pieces += index.pieces(d, window, with_extents=with_extents)
    return pieces


def shuffle_flows(
    pieces: Iterable[ExchangePiece],
    comm: SimComm,
    kind: IOKind,
    *,
    two_layer: bool = False,
) -> tuple[list[Flow], int, int]:
    """Flows for one round's shuffle, plus (intra, inter) byte counts.

    For writes, data moves process → aggregator; for reads the same
    pieces move aggregator → process (NIC directions swap).

    Intra-node pieces are modelled as one memory copy: the node's
    off-chip bus carries each byte twice (read + write). Inter-node
    pieces charge the sender's bus once (read), both NICs, the fabric
    core, and the receiver's bus once (write).

    ``two_layer`` enables the paper's intra-node/inter-node coordination:
    pieces from the same source node to the same aggregator are first
    gathered at a node leader (an extra copy across the source node's
    memory bus) and cross the network as *one* message — the flow count
    (and therefore the per-round message-startup latency the caller
    charges) drops from O(processes) to O(nodes), at the price of one
    more memory-bandwidth pass.
    """
    intra = 0
    inter = 0
    if two_layer:
        merged: dict[tuple[int, int], int] = {}
        for piece in pieces:
            if piece.nbytes == 0:
                continue
            key = (comm.node_of(piece.src_rank), piece.agg_rank)
            merged[key] = merged.get(key, 0) + piece.nbytes
        flows: list[Flow] = []
        for (src_node, agg_rank), nbytes in merged.items():
            agg_node = comm.node_of(agg_rank)
            if kind == "write":
                from_node, to_node = src_node, agg_node
            else:
                from_node, to_node = agg_node, src_node
            label = f"shuffle2l:n{src_node}->{agg_rank}"
            if from_node == to_node:
                intra += nbytes
                flows.append(
                    Flow(
                        size=float(nbytes),
                        resources=(membw(from_node),),
                        label=label,
                        resource_sizes={membw(from_node): 2.0 * nbytes},
                    )
                )
            else:
                inter += nbytes
                # Gather copy at the leader (2 bus passes) + network hop.
                flows.append(
                    Flow(
                        size=float(nbytes),
                        resources=(
                            membw(from_node),
                            nic_out(from_node),
                            BISECTION,
                            nic_in(to_node),
                            membw(to_node),
                        ),
                        label=label,
                        resource_sizes={membw(from_node): 3.0 * nbytes},
                    )
                )
        return flows, intra, inter

    flows = []
    for piece in pieces:
        nbytes = piece.nbytes
        if nbytes == 0:
            continue
        src_node = comm.node_of(piece.src_rank)
        agg_node = comm.node_of(piece.agg_rank)
        if kind == "write":
            from_node, to_node = src_node, agg_node
        else:
            from_node, to_node = agg_node, src_node
        label = f"shuffle:{piece.src_rank}->{piece.agg_rank}"
        if from_node == to_node:
            intra += nbytes
            flows.append(
                Flow(
                    size=float(nbytes),
                    resources=(membw(from_node),),
                    label=label,
                    resource_sizes={membw(from_node): 2.0 * nbytes},
                )
            )
        else:
            inter += nbytes
            flows.append(
                Flow(
                    size=float(nbytes),
                    resources=(
                        membw(from_node),
                        nic_out(from_node),
                        BISECTION,
                        nic_in(to_node),
                        membw(to_node),
                    ),
                    label=label,
                )
            )
    return flows, intra, inter
