"""The planner: plan collectives from the workload's flattened columns.

Planning never walks per-rank :class:`~repro.mpi.requests.AccessRequest`
objects; it reads a :class:`~repro.mpi.requests.FlatAccess` view of the
workload — ``(offset, length, rank)`` vectors — so the paper's Table 1
design point (a million ranks) plans in seconds. Offset–length lists are
processed in bulk, plan-wide, with ``searchsorted`` sweeps in place of
per-request or per-leaf loops:

* group boundaries come from the cut rules of
  :mod:`~repro.core.group_division`, fed by node envelopes as int64
  columns ``(node, start, end, nbytes)``: one ``lexsort`` by (node,
  offset), a per-node running maximum of the segment ends, and one
  ``lexsort`` into (start, end, first appearance) order;
* every group's tree grows in one level-by-level pass
  (:meth:`~repro.core.partition_tree.PartitionTree.build_forest`) over
  the prefix sum of the plan's aggregate coverage, and leaves are
  byte-rank intervals into it, never materialized coverages;
* leaf candidates come from one :class:`LeafTable` per plan: the
  segments cut once at every initial leaf bound
  (:func:`~repro.util.intervals.split_segments_to_bins`, the plan's only
  cut) and summed to ``(rank, node, bytes)`` columns, which
  :func:`~repro.core.placement.place_group` reads as slices; each
  group's member count is its distinct ranks among those entries;
* slots are a :class:`~repro.core.placement.SlotPlan` table built from
  the per-node availability vector;
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
    NodeEnvelopes,
    _infos_serial,
    _interleaved_boundaries,
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


def _node_infos_flat(flat: FlatAccess, nodes: np.ndarray) -> NodeEnvelopes:
    """Per-node access envelopes ``(node, start, end, nbytes)`` as int64
    columns, in (start, end) order; ties keep first-appearance order."""
    if flat.n_segments == 0:
        empty = np.empty(0, np.int64)
        return empty, empty, empty, empty
    order = np.lexsort((flat.offsets, nodes))
    nd, s, e = nodes[order], flat.offsets[order], flat.ends[order]
    first = np.flatnonzero(np.r_[True, nd[1:] != nd[:-1]])
    reach = _running_max(e, first)
    # A segment adds the bytes past everything its node covered before.
    prior = np.empty_like(reach)
    prior[1:] = reach[:-1]
    prior[first] = s[first]
    covered = np.maximum(e - np.maximum(s, prior), 0)
    start = s[first]
    end = reach[np.append(first[1:], nd.size) - 1]
    nbytes = np.add.reduceat(covered, first)
    seen = np.minimum.reduceat(order, first)
    by = np.lexsort((seen, end, start))
    return nd[first][by], start[by], end[by], nbytes[by]


def _running_max(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Running maximum of ``values``, restarted at every index in
    ``first`` (ascending, starting at 0).

    A doubling scan: after the pass with step ``d`` each entry holds the
    maximum of the ``2 * d`` entries ending at it within its run, so the
    pass count is log2 of the longest run. Nothing is added to the
    values, so offsets anywhere in int64 stay exact.
    """
    out = values.copy()
    n = values.size
    pos = np.arange(n) - np.repeat(first, np.diff(np.append(first, n)))
    longest = int(pos.max()) + 1
    step = 1
    while step < longest:
        behind = np.where(pos[step:] >= step, out[:-step], out[step:])
        np.maximum(out[step:], behind, out=out[step:])
        step *= 2
    return out


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
    envelopes = _node_infos_flat(flat, comm.nodes_of(flat.ranks))

    mode = config.group_mode
    if mode == "auto":
        mode = (
            "serial"
            if _infos_serial(envelopes, config.serial_overlap_threshold)
            else "interleaved"
        )
    if mode == "off":
        boundaries = [env.offset, env.end]
    elif mode == "serial":
        boundaries = _serial_boundaries_from(envelopes, config, env)
    elif mode == "interleaved":
        boundaries = _interleaved_boundaries(aggregate, config, env)
    else:  # pragma: no cover - config validates
        raise PartitionError(f"unknown group mode {mode!r}")

    groups: list[AggregationGroup] = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        if hi <= lo:
            raise PartitionError("non-monotone group boundaries")
        coverage = aggregate.clip(lo, hi - lo)
        if not coverage.is_empty:
            groups.append(AggregationGroup(len(groups), Extent(lo, hi - lo), coverage))
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

    ``group_sizes[t]`` counts the distinct ranks among the entries of
    tree ``t``'s leaves: the leaves tile the group's region, so those
    are exactly the ranks with bytes in the group.
    """

    def __init__(
        self, trees: Sequence[PartitionTree], flat: FlatAccess, comm: SimComm
    ) -> None:
        tree_leaves = [tree.leaves() for tree in trees]
        leaves = [leaf for each in tree_leaves for leaf in each]
        bounds = np.array([leaf.lo for leaf in leaves] + [leaves[-1].hi], np.int64)
        # Initial leaves tile the stream in order: leaf k holds ranks
        # [leaf_a[k], leaf_a[k + 1]).
        self._leaf_a = [leaf.a for leaf in leaves] + [leaves[-1].b]
        leaf_idx, ps, pe, src = split_segments_to_bins(flat.offsets, flat.ends, bounds)
        span = int(flat.ranks.max()) + 1
        key, nbytes, _ = _group_sum(leaf_idx * span + flat.ranks[src], pe - ps)
        entry_leaf, ranks = key // span, key % span
        # A group's leaves tile its region, so its members are the
        # distinct ranks among its leaves' entries. Sorting and dropping
        # repeats is ~50x faster here than np.unique on numpy 2.4.
        leaf_group = np.repeat(np.arange(len(trees)), [len(each) for each in tree_leaves])
        pairs = np.sort(leaf_group[entry_leaf] * span + ranks)
        members = pairs[np.r_[True, pairs[1:] != pairs[:-1]]]
        self.group_sizes = np.bincount(members // span, minlength=len(trees)).tolist()
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
    assignments, stats, group_sizes = _place_groups(
        ctx, flat, config, plan, groups, stream
    )
    assignments, moves = rebalance(plan, assignments)
    stats.n_rebalanced += moves
    domains = build_domains(plan, assignments, stream, ctx, config)
    return domains, stats, group_sizes


def _place_groups(
    ctx: IOContext,
    flat: FlatAccess,
    config: MemoryConsciousConfig,
    plan: SlotPlan,
    groups: list[AggregationGroup],
    stream: RankStream,
) -> tuple[list[Assignment], PlacementStats, dict[int, int]]:
    """Grow every group's tree and place its leaves, group by group.

    Returns the assignments, the counters and each group's member count.
    The forest and the leaf table live only for this call; the
    assignments keep just their rank intervals and candidates.
    """
    stats = PlacementStats()
    assignments: list[Assignment] = []
    if not groups:
        return assignments, stats, {}
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
    sizes = {group.group_id: n for group, n in zip(groups, source.group_sizes)}
    return assignments, stats, sizes
