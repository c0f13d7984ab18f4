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
segments at the range's ends clipped. The round's flows then come back
from :func:`shuffle_flows` as ``(resource id, bytes)`` columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from ..cluster.network import BISECTION, membw, nic_in, nic_out
from ..fs.pfs import IOKind
from ..mpi.comm import SimComm
from ..mpi.requests import AccessRequest
from ..sim.flows import Charges, ResourceIds
from ..util.intervals import ExtentList
from .domains import FileDomain

__all__ = [
    "ExchangeIndex",
    "ExchangePiece",
    "ShuffleCharges",
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
        # (Array methods rather than the np.* wrappers: this runs once
        # per domain and round, on small arrays.)
        lo = self.run_end.searchsorted(w_lo, side="right")
        hi = self.starts.searchsorted(w_hi, side="left")
        # Window extents are sorted and disjoint, so this expansion is
        # already in start order.
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        ext = np.arange(w_lo.size).repeat(counts)
        seg = (lo - (counts.cumsum() - counts)).repeat(counts) + np.arange(total)
        starts = np.maximum(self.starts[seg], w_lo[ext])
        ends = np.minimum(self.ends[seg], w_hi[ext])
        # Segments inside the range may still end before the window
        # starts (the range is bounded by the running maximum of ends).
        keep = ends > starts
        cand = self.cand[seg][keep]
        order = cand.argsort(kind="stable")
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


class ShuffleCharges(NamedTuple):
    """One round's shuffle as charge columns (see :func:`shuffle_flows`)."""

    #: every domain's flows; segment ``s`` is domain ``owners[s]``'s
    charges: Charges
    #: the round-wide merge, when ``merge_across_domains`` asked for it
    merged: Charges | None
    #: messages per domain that has pieces: flows under two-layer
    #: coordination, pieces otherwise
    messages: dict[int, int]
    intra: int
    inter: int


def shuffle_flows(
    pieces: Sequence[ExchangePiece],
    comm: SimComm,
    kind: IOKind,
    ids: ResourceIds,
    *,
    two_layer: bool = False,
    merge_across_domains: bool = False,
) -> ShuffleCharges:
    """One round's shuffle flows, as resource charges in flow order.

    ``pieces`` come grouped by domain (as :func:`plan_exchange` returns
    them); so do the flows. For writes, data moves process → aggregator;
    for reads the same pieces move aggregator → process (NIC directions
    swap).

    An intra-node flow of ``n`` bytes is one memory copy: it charges
    ``2n`` on the node's memory bus. An inter-node flow charges ``n`` on
    each of the sender's bus (read), its NIC, the fabric core, the
    receiver's NIC and the receiver's bus (write).

    ``two_layer`` enables the paper's intra-node/inter-node coordination:
    pieces from the same source node to the same aggregator are first
    gathered at a node leader and cross the network as *one* message,
    so an inter-node flow charges ``3n`` on the sending bus (the gather
    copy's two passes plus the send). The flow count (and therefore the
    per-round message-startup latency the caller charges) drops from
    O(processes) to O(nodes). Flows merge per domain, in order of their
    first piece; ``merge_across_domains`` also returns the merge over
    the whole round (an aggregator rank that owns several domains then
    gets one flow per source node).
    """
    cols = np.array([p[:4] for p in pieces], dtype=np.int64).reshape(-1, 4)
    src_rank, agg_rank, domain, nbytes = cols.T
    domains, counts = np.unique(domain, return_counts=True)
    src_node = comm.nodes_of(src_rank)
    agg_node = comm.nodes_of(agg_rank)
    sent = nbytes > 0
    intra = int(nbytes[sent & (src_node == agg_node)].sum())
    inter = int(nbytes[sent].sum()) - intra
    flows = np.flatnonzero(sent)
    flow_bytes = nbytes[flows]
    if two_layer:
        n_nodes = comm.cluster.n_nodes
        flows, flow_bytes = _merge(domain[flows] * n_nodes + src_node[flows], flows, flow_bytes)
        messages = dict.fromkeys(domains.tolist(), 0)
        d, c = np.unique(domain[flows], return_counts=True)
        messages.update(zip(d.tolist(), c.tolist()))
    else:
        messages = dict(zip(domains.tolist(), counts.tolist()))
    bus = 3.0 if two_layer else 1.0
    charges = _flow_charges(
        ids, kind, src_node[flows], agg_node[flows], flow_bytes, domain[flows], bus
    )
    merged = None
    if merge_across_domains:
        flows = np.flatnonzero(sent)
        flows, flow_bytes = _merge(
            src_node[flows] * comm.size + agg_rank[flows], flows, nbytes[flows]
        )
        merged = _flow_charges(
            ids, kind, src_node[flows], agg_node[flows], flow_bytes,
            np.zeros(flows.size, dtype=np.int64), bus,
        )
    return ShuffleCharges(charges, merged, messages, intra, inter)


def _merge(
    code: np.ndarray, pieces: np.ndarray, nbytes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pieces with equal ``code`` as one flow each, in first-piece order.

    Returns each flow's first piece (an index into ``pieces``' source)
    and its summed bytes.
    """
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    flow_of = np.empty_like(order)
    flow_of[order] = np.arange(order.size)
    summed = np.zeros(order.size, dtype=np.int64)
    np.add.at(summed, flow_of[inverse], nbytes)
    return pieces[first[order]], summed


def _flow_charges(
    ids: ResourceIds,
    kind: IOKind,
    src_node: np.ndarray,
    agg_node: np.ndarray,
    nbytes: np.ndarray,
    owner: np.ndarray,
    bus: float,
) -> Charges:
    """Charges of flows of ``nbytes`` each, flow by flow, segmented by ``owner``.

    ``bus`` scales an inter-node flow's charge on the sending bus.
    """
    if kind == "write":
        from_node, to_node = src_node, agg_node
    else:
        from_node, to_node = agg_node, src_node
    inter = from_node != to_node
    width = np.where(inter, 5, 1)
    start = np.cumsum(width) - width
    key_ids = np.empty(int(width.sum()), dtype=np.int64)
    amounts = np.empty(key_ids.size, dtype=np.float64)
    size = nbytes.astype(np.float64)
    key_ids[start] = ids.column(membw, from_node)
    amounts[start] = np.where(inter, bus * size, 2.0 * size)
    at, out, into = start[inter], from_node[inter], to_node[inter]
    for step, column in enumerate(
        (
            ids.column(nic_out, out),
            np.full(at.size, ids[BISECTION]),
            ids.column(nic_in, into),
            ids.column(membw, into),
        ),
        start=1,
    ):
        key_ids[at + step] = column
        amounts[at + step] = size[inter]
    first = np.ones(owner.size, dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    return Charges(key_ids, amounts, start[first], owner[first])
