"""The planner: plan collectives from the workload's flattened columns.

Planning never walks per-rank :class:`~repro.mpi.requests.AccessRequest`
objects; it reads a :class:`~repro.mpi.requests.FlatAccess` view of the
workload — ``(offset, length, rank)`` vectors — so the paper's Table 1
design point (a million ranks) plans in seconds. Offset–length lists are
processed in bulk, plan-wide, with ``searchsorted`` sweeps in place of
per-request or per-leaf loops:

* group boundaries come from the cut rules of
  :mod:`~repro.core.group_division`, fed by columnar node envelopes;
  group membership comes from one batched cut of the flattened segments
  (:func:`~repro.util.intervals.split_segments_to_bins`), which keeps
  per-segment rank identity;
* every group's tree grows in one level-by-level pass
  (:meth:`~repro.core.partition_tree.PartitionTree.build_forest`) over
  the prefix sum of the plan's aggregate coverage, and leaves are
  byte-rank intervals into it, never materialized coverages;
* leaf candidates come from one :class:`LeafTable` per plan: the
  segments cut once at every initial leaf bound and summed to
  ``(rank, node, bytes)`` columns, which
  :func:`~repro.core.placement.place_group` reads as slices;
* :func:`~repro.core.placement.build_domains` slices each slot's
  coverage from its merged rank runs in one pass.

The tests hold a per-request reference planner and require this one to
produce bit-identical plans (same groups, trees, slots, aggregators).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

import numpy as np

from ..io.context import IOContext
from ..io.domains import FileDomain
from ..mpi.comm import SimComm
from ..mpi.requests import FlatAccess
from ..util.errors import PartitionError
from ..util.intervals import Extent, ExtentList, split_segments_to_bins
from .config import MemoryConsciousConfig
from .group_division import (
    AggregationGroup,
    _infos_serial,
    _interleaved_boundaries,
    _NodeAccess,
    _serial_boundaries_from,
)
from .partition_tree import PartitionNode, PartitionTree, RankStream
from .placement import (
    Assignment,
    LeafCandidates,
    PlacementStats,
    SlotPlan,
    _group_sum,
    build_domains,
    place_group,
    rebalance,
)

__all__ = [
    "LeafTable",
    "divide_groups_flat",
    "plan_columnar",
]


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
) -> tuple[list[AggregationGroup], ExtentList]:
    """Split the workload into aggregation groups per the configured mode.

    Returns the groups plus the aggregate coverage they cut, whose
    :class:`RankStream` the partition forest bisects.
    """
    aggregate = flat.aggregate()
    if aggregate.is_empty:
        return [], aggregate
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
    bin_idx, _, _, src = split_segments_to_bins(flat.offsets, flat.ends, bounds)
    pranks = flat.ranks[src]
    order = np.argsort(bin_idx, kind="stable")
    bin_sorted = bin_idx[order]

    groups: list[AggregationGroup] = []
    for b in range(bounds.size - 1):
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        coverage = aggregate.clip(lo, hi - lo)
        if coverage.is_empty:
            continue
        i0 = int(np.searchsorted(bin_sorted, b, side="left"))
        i1 = int(np.searchsorted(bin_sorted, b, side="right"))
        groups.append(
            AggregationGroup(
                group_id=len(groups),
                region=Extent(lo, hi - lo),
                coverage=coverage,
                member_ranks=tuple(np.unique(pranks[order[i0:i1]]).tolist()),
            )
        )
    return groups, aggregate


class LeafTable:
    """Leaf candidates for every initial leaf of a plan, as columns.

    At construction the workload's segments are cut once at the initial
    leaf bounds of every tree and summed to per-(leaf, rank) bytes: the
    entry columns ``(rank, node, bytes)``, leaf-major and rank-ascending.
    The same pass sums per-(leaf, host) bytes and orders each leaf's
    hosts by first intersecting rank, into host columns ``(host, bytes,
    first rank)``. An initial leaf's candidates are then rows of those
    columns. Remerge surgery only ever hands a leaf's bytes to an
    adjacent leaf, so every live leaf is a run of contiguous initial
    leaves — found by bisecting its rank interval — whose entries are
    contiguous rows too; only its hosts are re-merged.
    """

    def __init__(
        self, trees: Sequence[PartitionTree], flat: FlatAccess, comm: SimComm
    ) -> None:
        leaves = [leaf for tree in trees for leaf in tree.leaves()]
        bounds = np.array([leaf.lo for leaf in leaves] + [leaves[-1].hi], np.int64)
        # Initial leaves tile the stream in order: leaf k holds ranks
        # [leaf_a[k], leaf_a[k + 1]).
        self._leaf_a = [leaf.a for leaf in leaves] + [leaves[-1].b]
        leaf_idx, ps, pe, src = split_segments_to_bins(flat.offsets, flat.ends, bounds)
        span = int(flat.ranks.max()) + 1
        key, nbytes, _ = _group_sum(leaf_idx * span + flat.ranks[src], pe - ps)
        entry_leaf, ranks = key // span, key % span
        nodes = comm.nodes_of(ranks)
        node_span = int(nodes.max()) + 1
        hkey, hbytes, hfirst = _group_sum(entry_leaf * node_span + nodes, nbytes)
        by_first = np.argsort(hfirst)  # leaf-major, then first rank
        hkey, hbytes, hfirst = hkey[by_first], hbytes[by_first], hfirst[by_first]
        at = np.arange(len(leaves) + 1)
        self._entry_at = np.searchsorted(entry_leaf, at).tolist()
        self._host_at = np.searchsorted(hkey // node_span, at).tolist()
        self._columns = (ranks, nodes, nbytes)
        self._host_columns = ((hkey % node_span).tolist(), hbytes)
        self._host_first = ranks[hfirst]

    def for_leaf(self, leaf: PartitionNode) -> LeafCandidates:
        k0 = bisect_left(self._leaf_a, leaf.a)
        k1 = bisect_left(self._leaf_a, leaf.b, k0)
        e0, e1 = self._entry_at[k0], self._entry_at[k1]
        h0, h1 = self._host_at[k0], self._host_at[k1]
        if k1 == k0 + 1:
            return LeafCandidates(self._columns, e0, e1, self._host_columns, h0, h1)
        # A merged leaf: a host's bytes add up over the initial leaves,
        # and its first rank is the least of theirs.
        hosts, host_bytes = self._host_columns
        first: dict[int, int] = {}
        total: dict[int, int] = {}
        for node, rank, nbytes in zip(
            hosts[h0:h1], self._host_first[h0:h1].tolist(), host_bytes[h0:h1].tolist()
        ):
            if node in total:
                total[node] += nbytes
                first[node] = min(first[node], rank)
            else:
                total[node], first[node] = nbytes, rank
        merged = sorted(total, key=first.__getitem__)
        return LeafCandidates(
            self._columns, e0, e1,
            (merged, np.array([total[node] for node in merged], np.int64)),
            0, len(merged),
        )


def plan_columnar(
    ctx: IOContext,
    flat: FlatAccess,
    config: MemoryConsciousConfig,
) -> tuple[list[FileDomain], PlacementStats, dict[int, int]]:
    """Run planning components 1-4; returns (domains, stats, group sizes)."""
    groups, aggregate = divide_groups_flat(flat, ctx.comm, config)
    plan = SlotPlan.build(ctx, config)
    stream = RankStream(aggregate)
    assignments, stats = _place_groups(ctx, flat, config, plan, groups, stream)
    assignments, moves = rebalance(plan, assignments)
    stats.n_rebalanced += moves
    domains = build_domains(plan, assignments, stream, ctx, config)
    group_sizes = {group.group_id: len(group.member_ranks) for group in groups}
    return domains, stats, group_sizes


def _place_groups(
    ctx: IOContext,
    flat: FlatAccess,
    config: MemoryConsciousConfig,
    plan: SlotPlan,
    groups: list[AggregationGroup],
    stream: RankStream,
) -> tuple[list[Assignment], PlacementStats]:
    """Grow every group's tree and place its leaves, group by group.

    The forest and the leaf table live only for this call; the
    assignments keep just their rank intervals and candidates.
    """
    stats = PlacementStats()
    assignments: list[Assignment] = []
    if not groups:
        return assignments, stats
    align = (
        ctx.pfs.layout.align_down if ctx.hints.align_domains_to_stripes else None
    )
    trees = PartitionTree.build_forest(
        stream, [group.region for group in groups], config.msg_ind, align=align
    )
    source = LeafTable(trees, flat, ctx.comm)
    for group, tree in zip(groups, trees):
        placed, g_stats = place_group(
            group, tree, ctx, config, plan, candidates=source
        )
        assignments.extend(placed)
        stats.merge(g_stats)
    return assignments, stats
