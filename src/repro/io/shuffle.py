"""The data-shuffle phase: who sends what to which aggregator.

For one round, each process intersects its request with each
aggregator's round window; the non-empty pieces become point-to-point
transfers. Intra-node pieces are memory copies (charged twice on the
node's memory bus); inter-node pieces cross both NICs and the fabric
core — the distinction that makes aggregator *placement* matter.

The intersections are columnar. :class:`ExchangeIndex` flattens the
requests into (request, start, end) segments once per run and cuts them
to every coverage extent of every domain in one pass, keeping one table
sorted by (domain, start). A round's pieces are then one cut over all of
its (domain, part, window extent) queries, returned as
:class:`ExchangePieces` columns, and the round's flows come back from
:func:`shuffle_flows` as ``(resource id, bytes)`` columns.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat
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
    "ExchangePieces",
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


@dataclass(frozen=True, slots=True, eq=False)
class ExchangePieces:
    """One round's pieces as int64 columns, in :func:`plan_exchange` order.

    Row ``k`` is one piece: ``src_rank[k]`` sends ``nbytes[k]`` to
    ``agg_rank[k]`` for domain ``domain[k]``; ``extents[k]`` holds its
    bytes when the byte-accurate data path asked for them. Iterating
    yields :class:`ExchangePiece` rows.
    """

    src_rank: np.ndarray
    agg_rank: np.ndarray
    domain: np.ndarray
    nbytes: np.ndarray
    extents: list[ExtentList] | None = None

    def __len__(self) -> int:
        return self.nbytes.size

    def __iter__(self) -> Iterator[ExchangePiece]:
        extents = repeat(None) if self.extents is None else self.extents
        columns = (self.src_rank, self.agg_rank, self.domain, self.nbytes)
        for row in zip(*(c.tolist() for c in columns), extents):
            yield ExchangePiece(*row)


_NONE = np.empty(0, dtype=np.int64)


class ExchangeIndex:
    """Every domain's request pieces, indexed once per run.

    The request extents, cut to every domain's coverage, are kept as
    flat columns sorted by (domain, start): ``start``/``end`` of each
    request ∩ coverage segment and the ``request`` it came from (its
    index, whose order within a domain is the candidate order). Searches
    run on banded keys: an offset's rank among the index's distinct
    ``bounds``, plus ``domain · len(bounds)``. ``start_key`` keys each
    segment's start, ``reach_key`` the running maximum of its domain's
    ends up to it (segments of different requests may overlap, so the
    ends are not sorted; their running maximum is, and bounds a search).
    A key is below ``n_domains · len(bounds)``, a product of two array
    lengths, so it fits int64 whatever the file offsets are.

    ``parts[d]`` lists the original domains whose coverage domain ``d``
    serves now, in order: ``[d]`` until a remerge hands it another
    domain's remaining coverage, which :meth:`remerge` appends.
    """

    def __init__(
        self, requests: Sequence[AccessRequest], domains: Sequence[FileDomain]
    ) -> None:
        lists = [r.extents for r in requests]
        sizes = np.asarray([len(el) for el in lists], dtype=np.int64)
        self.rank_of = np.asarray([r.rank for r in requests], dtype=np.int64)
        request = np.repeat(np.arange(len(lists)), sizes)
        starts = np.concatenate([el.starts for el in lists] or [_NONE])
        ends = np.concatenate([el.ends for el in lists] or [_NONE])
        order = np.argsort(starts, kind="stable")
        request, starts, ends = request[order], starts[order], ends[order]
        run_end = np.maximum.accumulate(ends)

        # Every coverage extent, tagged with its domain, selects the
        # request segments it may overlap: one searchsorted pair each.
        coverages = [d.coverage for d in domains]
        c_lo = np.concatenate([c.starts for c in coverages] or [_NONE])
        c_hi = np.concatenate([c.ends for c in coverages] or [_NONE])
        c_dom = np.repeat(
            np.arange(len(coverages)), np.asarray([len(c) for c in coverages], dtype=np.int64)
        )
        ext, seg = _expand(
            run_end.searchsorted(c_lo, side="right"), starts.searchsorted(c_hi, side="left")
        )
        seg_lo = np.maximum(starts[seg], c_lo[ext])
        seg_hi = np.minimum(ends[seg], c_hi[ext])
        # Segments inside a range may still end before its extent starts.
        keep = seg_hi > seg_lo
        dom, seg_lo, seg_hi, seg = c_dom[ext[keep]], seg_lo[keep], seg_hi[keep], seg[keep]
        # Equal (domain, start) pairs lie in one coverage extent, where
        # the expansion already holds them in segment order.
        order = np.lexsort((seg_lo, dom))
        dom = dom[order]
        self.start, self.end = seg_lo[order], seg_hi[order]
        self.request = request[seg[order]]

        self.bounds = np.unique(np.concatenate([self.start, self.end]))
        band = dom * self.bounds.size
        self.start_key = band + self.bounds.searchsorted(self.start)
        self.reach_key = np.maximum.accumulate(band + self.bounds.searchsorted(self.end))
        self.aggregators = np.asarray([d.aggregator for d in domains], dtype=np.int64)
        self.parts: list[list[int]] = [[d] for d in range(len(domains))]

    def remerge(self, src: int, taker: int) -> None:
        """Domain ``taker`` takes over everything domain ``src`` serves."""
        self.parts[taker] = self.parts[taker] + self.parts[src]
        self.parts[src] = []


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(k, j)`` with ``lo[k] <= j < hi[k]``, as two columns, k-major."""
    counts = np.maximum(hi - lo, 0)
    owner = np.arange(lo.size).repeat(counts)
    index = (lo - (counts.cumsum() - counts)).repeat(counts) + np.arange(int(counts.sum()))
    return owner, index


def plan_exchange(
    index: ExchangeIndex,
    windows: Sequence[ExtentList],
    *,
    with_extents: bool = False,
) -> ExchangePieces:
    """Every domain's pieces for its round window ``windows[d]``.

    Pieces come per domain, then per part (the domain's own coverage
    first, remerged coverage after), then per source request in request
    order. ``with_extents`` also builds each piece's extent list.

    One query per (domain, part, window extent): a ``searchsorted`` pair
    on the index's banded keys selects the part's segments the extent
    may touch, one expansion clips them all, one ``lexsort`` by (query
    group, request) groups them, and ``np.add.reduceat`` sums each
    (group, request) run into one piece.
    """
    g_dom, g_part, lows, highs = [], [], [], []
    for d, window in enumerate(windows):
        if not window.is_empty:
            for part in index.parts[d]:
                g_dom.append(d)
                g_part.append(part)
                lows.append(window.starts)
                highs.append(window.ends)
    if not g_dom:
        return ExchangePieces(_NONE, _NONE, _NONE, _NONE, [] if with_extents else None)
    w_lo = np.concatenate(lows)
    w_hi = np.concatenate(highs)
    query = np.arange(len(lows)).repeat([lo.size for lo in lows])
    bounds = index.bounds
    band = np.asarray(g_part, dtype=np.int64)[query] * bounds.size
    lo = index.reach_key.searchsorted(band + bounds.searchsorted(w_lo, side="right"))
    hi = index.start_key.searchsorted(band + bounds.searchsorted(w_hi, side="left"))
    # Window extents are sorted and disjoint, so each query group's
    # expansion is already in start order.
    ext, seg = _expand(lo, hi)
    starts = np.maximum(index.start[seg], w_lo[ext])
    ends = np.minimum(index.end[seg], w_hi[ext])
    keep = ends > starts
    group, request = query[ext[keep]], index.request[seg[keep]]
    order = np.lexsort((request, group))
    group, request = group[order], request[order]
    starts, ends = starts[keep][order], ends[keep][order]
    # Runs of equal (group, request) are one piece each.
    new = np.ones(group.size, dtype=bool)
    new[1:] = (group[1:] != group[:-1]) | (request[1:] != request[:-1])
    first = np.flatnonzero(new)
    domain = np.asarray(g_dom, dtype=np.int64)[group[first]]
    extents = None
    if with_extents:
        last = [*first[1:].tolist(), group.size]
        extents = [ExtentList(starts[a:b], ends[a:b]) for a, b in zip(first.tolist(), last)]
    return ExchangePieces(
        index.rank_of[request[first]],
        index.aggregators[domain],
        domain,
        np.add.reduceat(ends - starts, first),
        extents,
    )


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
    pieces: ExchangePieces,
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
    src_rank, agg_rank, domain, nbytes = (
        pieces.src_rank, pieces.agg_rank, pieces.domain, pieces.nbytes
    )
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
