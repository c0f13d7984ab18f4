"""The planner: plan collectives from the workload's flattened columns.

Planning never walks per-rank :class:`~repro.mpi.requests.AccessRequest`
objects; it reads a :class:`~repro.mpi.requests.FlatAccess` view of the
workload — ``(offset, length, rank)`` vectors — so the paper's Table 1
design point (a million ranks) plans in seconds. Offset–length lists are
processed in bulk, with one prefix sum per group and ``searchsorted``
sweeps in place of per-request loops:

* group boundaries come from the cut rules of
  :mod:`~repro.core.group_division`, fed by columnar node envelopes;
* group membership and leaf candidates come from one batched cut of the
  flattened segments (:func:`~repro.util.intervals.
  split_segments_to_bins`), which keeps per-segment rank identity;
* trees are built by :meth:`~repro.core.partition_tree.PartitionTree.
  build_indexed`, byte-rank arithmetic over one prefix sum;
* placement is :func:`~repro.core.placement.place_group`, handed a
  :class:`PieceCandidateSource` that answers leaf-candidate queries from
  the piece table.

The tests hold a per-request reference planner and require this one to
produce bit-identical plans (same groups, trees, slots, aggregators).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..io.context import IOContext
from ..io.domains import FileDomain
from ..mpi.comm import SimComm
from ..mpi.requests import FlatAccess
from ..util.errors import PartitionError
from ..util.intervals import Extent, split_segments_to_bins
from .config import MemoryConsciousConfig
from .group_division import (
    AggregationGroup,
    _infos_serial,
    _interleaved_boundaries,
    _NodeAccess,
    _serial_boundaries_from,
)
from .partition_tree import PartitionNode, PartitionTree
from .placement import (
    Assignment,
    PlacementStats,
    SlotPlan,
    build_domains,
    place_group,
    rebalance,
)

__all__ = [
    "GroupPieces",
    "PieceCandidateSource",
    "divide_groups_flat",
    "plan_columnar",
]


@dataclass(frozen=True, slots=True)
class GroupPieces:
    """One group's share of the flattened workload, cut at its region.

    Parallel arrays: piece ``[starts, ends)`` with the owning ``ranks``
    and their host ``nodes``. Pieces keep the flat segment order
    (rank-ascending, then file order within a rank).
    """

    starts: np.ndarray
    ends: np.ndarray
    ranks: np.ndarray
    nodes: np.ndarray


def _node_infos_flat(flat: FlatAccess, nodes: np.ndarray) -> list[_NodeAccess]:
    """Per-node access envelopes (node, envelope, covered bytes), in
    (start, end) order; ties keep first-appearance order."""
    if flat.n_segments == 0:
        return []
    ends = flat.ends
    order = np.lexsort((flat.offsets, nodes))
    nd = nodes[order]
    s = flat.offsets[order]
    e = ends[order]
    # Shift each node's offsets into a private band so one global
    # running-max sweep coalesces per node without a Python loop.
    big = int(e.max()) + 1
    ks = s + nd * big
    ke = e + nd * big
    run_end = np.maximum.accumulate(ke)
    new_run = np.empty(nd.size, dtype=bool)
    new_run[0] = True
    new_run[1:] = ks[1:] > run_end[:-1]
    run_first = np.flatnonzero(new_run)
    run_last = np.append(run_first[1:] - 1, nd.size - 1)
    # A coalesced run is one contiguous interval, so its union size is
    # just (max end - start); band offsets cancel within a run.
    run_bytes = run_end[run_last] - ks[run_first]
    run_node = nd[run_first]

    uniq_nodes, first_seen = np.unique(nodes, return_index=True)
    nbytes = np.zeros(uniq_nodes.size, np.int64)
    np.add.at(nbytes, np.searchsorted(uniq_nodes, run_node), run_bytes)
    node_first = np.searchsorted(nd, uniq_nodes, side="left")
    node_last = np.searchsorted(nd, uniq_nodes, side="right") - 1
    env_start = s[node_first]  # (node, start)-sorted: first is the min
    env_end = run_end[node_last] - uniq_nodes * big  # banded running max

    # Emit in first-appearance order, then a stable (start, end) sort.
    infos = [
        _NodeAccess(
            int(uniq_nodes[j]),
            int(env_start[j]),
            int(env_end[j]),
            int(nbytes[j]),
        )
        for j in np.argsort(first_seen, kind="stable")
    ]
    infos.sort(key=lambda n: (n.start, n.end))
    return infos


def divide_groups_flat(
    flat: FlatAccess,
    comm: SimComm,
    config: MemoryConsciousConfig,
) -> tuple[list[AggregationGroup], list[GroupPieces]]:
    """Split the workload into aggregation groups per the configured mode.

    Returns the groups plus each group's piece table (the flattened
    segments cut at group boundaries), which downstream placement uses
    for candidate lookups.
    """
    aggregate = flat.aggregate()
    if aggregate.is_empty:
        return [], []
    env = aggregate.envelope()
    nodes = comm.nodes_of(flat.ranks)
    infos = _node_infos_flat(flat, nodes)

    mode = config.group_mode
    if mode == "auto":
        mode = (
            "serial"
            if _infos_serial(infos, config.serial_overlap_threshold)
            else "interleaved"
        )
    if mode == "off":
        boundaries = [env.offset, env.end]
    elif mode == "serial":
        boundaries = _serial_boundaries_from(infos, config, env)
    elif mode == "interleaved":
        boundaries = _interleaved_boundaries(aggregate, config, env)
    else:  # pragma: no cover - config validates
        raise PartitionError(f"unknown group mode {mode!r}")

    bounds = np.asarray(boundaries, dtype=np.int64)
    if np.any(np.diff(bounds) <= 0):
        raise PartitionError("non-monotone group boundaries")
    bin_idx, ps, pe, src = split_segments_to_bins(
        flat.offsets, flat.ends, bounds
    )
    pranks = flat.ranks[src]
    pnodes = nodes[src]
    order = np.argsort(bin_idx, kind="stable")
    bin_sorted = bin_idx[order]

    groups: list[AggregationGroup] = []
    pieces: list[GroupPieces] = []
    for b in range(bounds.size - 1):
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        coverage = aggregate.clip(lo, hi - lo)
        if coverage.is_empty:
            continue
        i0 = int(np.searchsorted(bin_sorted, b, side="left"))
        i1 = int(np.searchsorted(bin_sorted, b, side="right"))
        sel = order[i0:i1]
        groups.append(
            AggregationGroup(
                group_id=len(groups),
                region=Extent(lo, hi - lo),
                coverage=coverage,
                member_ranks=tuple(np.unique(pranks[sel]).tolist()),
            )
        )
        pieces.append(
            GroupPieces(ps[sel], pe[sel], pranks[sel], pnodes[sel])
        )
    return groups, pieces


class PieceCandidateSource:
    """Leaf-candidate lookup over a group's precomputed piece table.

    At construction the group's pieces are cut once more at the *initial*
    partition-tree leaf boundaries and aggregated to per-(leaf, rank)
    byte counts. Because remerge surgery only ever hands a leaf's region
    to an adjacent leaf, every live leaf remains a union of contiguous
    initial-leaf intervals — so a lookup is a ``searchsorted`` into the
    initial bounds plus a merge of the covered per-leaf entries. Entries
    are cached per leaf and invalidated when surgery moves its bounds.
    """

    def __init__(self, tree: PartitionTree, pieces: GroupPieces) -> None:
        leaves = tree.leaves()
        self._leaf_lo = np.asarray([l.lo for l in leaves], dtype=np.int64)
        self._leaf_hi = np.asarray([l.hi for l in leaves], dtype=np.int64)
        leaf_bounds = np.append(self._leaf_lo, self._leaf_hi[-1])
        leaf_idx, ps, pe, src = split_segments_to_bins(
            pieces.starts, pieces.ends, leaf_bounds
        )
        ranks = pieces.ranks[src]
        piece_nodes = pieces.nodes[src]
        nbytes = pe - ps
        rank_span = int(ranks.max()) + 1 if ranks.size else 1
        key = leaf_idx * rank_span + ranks
        uniq, inv = np.unique(key, return_inverse=True)
        byte_sum = np.zeros(uniq.size, np.int64)
        np.add.at(byte_sum, inv, nbytes)
        node_of = np.zeros(uniq.size, np.int64)
        node_of[inv] = piece_nodes  # constant per rank; any write wins
        # `uniq` is key-sorted: leaf-major, rank-ascending within a leaf.
        self._entry_leaf = uniq // rank_span
        self._entry_rank = uniq % rank_span
        self._entry_node = node_of
        self._entry_bytes = byte_sum
        self._cache: dict[
            int, tuple[int, int, dict[int, tuple[tuple[int, int], ...]]]
        ] = {}

    def for_leaf(
        self, leaf: PartitionNode
    ) -> dict[int, tuple[tuple[int, int], ...]]:
        hit = self._cache.get(id(leaf))
        if hit is not None and hit[0] == leaf.lo and hit[1] == leaf.hi:
            return hit[2]
        i0 = int(np.searchsorted(self._leaf_lo, leaf.lo, side="left"))
        i1 = int(np.searchsorted(self._leaf_hi, leaf.hi, side="left"))
        a0 = int(np.searchsorted(self._entry_leaf, i0, side="left"))
        a1 = int(np.searchsorted(self._entry_leaf, i1, side="right"))
        acc: dict[int, int] = {}
        nodes: dict[int, int] = {}
        for r, nd, b in zip(
            self._entry_rank[a0:a1].tolist(),
            self._entry_node[a0:a1].tolist(),
            self._entry_bytes[a0:a1].tolist(),
        ):
            acc[r] = acc.get(r, 0) + b
            nodes[r] = nd
        grouped: dict[int, list[tuple[int, int]]] = {}
        for r in sorted(acc):
            grouped.setdefault(nodes[r], []).append((r, acc[r]))
        hosts = {node: tuple(pairs) for node, pairs in grouped.items()}
        self._cache[id(leaf)] = (leaf.lo, leaf.hi, hosts)
        return hosts


def plan_columnar(
    ctx: IOContext,
    flat: FlatAccess,
    config: MemoryConsciousConfig,
) -> tuple[list[FileDomain], PlacementStats, dict[int, int]]:
    """Run planning components 1-4; returns (domains, stats, group sizes)."""
    groups, group_pieces = divide_groups_flat(flat, ctx.comm, config)
    plan = SlotPlan.build(ctx, config)
    stats = PlacementStats()
    assignments: list[Assignment] = []
    group_sizes: dict[int, int] = {}
    align = (
        ctx.pfs.layout.align_down if ctx.hints.align_domains_to_stripes else None
    )
    for group, pieces in zip(groups, group_pieces):
        tree = PartitionTree.build_indexed(
            group.coverage,
            config.msg_ind,
            region=group.region,
            align=align,
        )
        source = PieceCandidateSource(tree, pieces)
        placed, g_stats = place_group(
            group, tree, ctx, config, plan, candidates=source
        )
        assignments.extend(placed)
        stats.merge(g_stats)
        group_sizes[group.group_id] = len(group.member_ranks)
    assignments, moves = rebalance(plan, assignments)
    stats.n_rebalanced += moves
    domains = build_domains(plan, assignments, ctx, config)
    return domains, stats, group_sizes
