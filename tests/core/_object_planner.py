"""Per-request object planner: the reference the columnar planner must match.

The production planner (:func:`repro.core.columnar.plan_columnar`) works
on flattened ``(offset, length, rank)`` columns. This module plans the
same collective the slow, obvious way — one :class:`AccessRequest` at a
time — and exists only so tests can demand bit-identical plans from the
two. It re-implements exactly the steps where the engines differ:

* group division (:func:`divide_groups`): per-node envelopes by unioning
  each node's request extents into :class:`NodeAccess` objects, the
  serial test and the Figure 4 cuts over those objects, members by
  clipping every request;
* the partition tree (:func:`build_tree`): recursive bisection that
  clips each vertex's coverage and finds the median by a fresh prefix
  sum per split (:func:`offset_at_rank`), one group at a time, counting
  each vertex's byte-rank interval from the clipped totals;
* leaf candidates (:class:`RequestCandidateSource`): every member
  request intersected with the leaf's coverage, gathered into the same
  :class:`~repro.core.placement.LeafCandidates` columns.

Everything the engines share — the interleaved cut rule, the slot plan,
``place_group``, ``rebalance`` and ``build_domains`` — is the production
code itself, so a parity failure points at one of the three steps above.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import MemoryConsciousConfig
from repro.core.group_division import AggregationGroup, _interleaved_boundaries
from repro.core.partition_tree import PartitionNode, PartitionTree, RankStream
from repro.core.placement import (
    Assignment,
    LeafCandidates,
    PlacementStats,
    SlotPlan,
    build_domains,
    place_group,
    rebalance,
)
from repro.core.plans import CollectivePlan
from repro.io.context import IOContext
from repro.mpi.comm import SimComm
from repro.mpi.requests import AccessRequest
from repro.util.errors import PartitionError
from repro.util.intervals import Extent, ExtentList
from repro.util.validation import check_positive

# ------------------------------------------------------------ group division


@dataclass(frozen=True, slots=True)
class ObjectGroup(AggregationGroup):
    """A group that also lists its member ranks (ranks with bytes in it)."""

    member_ranks: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class NodeAccess:
    node_id: int
    start: int
    end: int
    nbytes: int


def _node_accesses(
    requests: Sequence[AccessRequest], comm: SimComm
) -> list[NodeAccess]:
    """Per-node access envelopes, ordered by start offset."""
    by_node: dict[int, list[ExtentList]] = {}
    for req in requests:
        if req.extents.is_empty:
            continue
        by_node.setdefault(comm.node_of(req.rank), []).append(req.extents)
    infos = []
    for node_id, parts in by_node.items():
        cov = ExtentList.union_all(parts)
        env = cov.envelope()
        infos.append(NodeAccess(node_id, env.offset, env.end, cov.total))
    infos.sort(key=lambda n: (n.start, n.end))
    return infos


def infos_serial(infos: Sequence[NodeAccess], overlap_threshold: float) -> bool:
    """Serial-distribution test over node envelope objects."""
    if len(infos) <= 1:
        return True
    span_sum = sum(n.end - n.start for n in infos)
    if span_sum == 0:
        return True
    overlap = 0
    max_end = infos[0].end
    for node in infos[1:]:
        overlap += max(0, min(max_end, node.end) - node.start)
        max_end = max(max_end, node.end)
    return overlap / span_sum <= overlap_threshold


def serial_boundaries_from(
    infos: Sequence[NodeAccess],
    config: MemoryConsciousConfig,
    env: Extent,
) -> list[int]:
    """Figure 4's node-aligned cuts over node envelope objects."""
    boundaries = [env.offset]
    acc = 0
    group_end = env.offset
    i = 0
    n = len(infos)
    while i < n:
        node = infos[i]
        acc += node.nbytes
        group_end = max(group_end, node.end)
        i += 1
        if acc >= config.msg_group and i < n:
            while i < n and infos[i].start < group_end:
                acc += infos[i].nbytes
                group_end = max(group_end, infos[i].end)
                i += 1
            if i < n and group_end > boundaries[-1]:
                boundaries.append(group_end)
                acc = 0
    if boundaries[-1] != env.end:
        boundaries.append(env.end)
    return boundaries


def detect_serial(
    requests: Sequence[AccessRequest],
    comm: SimComm,
    *,
    overlap_threshold: float,
) -> bool:
    """True when per-node regions are ordered with little overlap."""
    return infos_serial(_node_accesses(requests, comm), overlap_threshold)


def _members(
    requests: Sequence[AccessRequest], region: Extent
) -> tuple[int, ...]:
    out = []
    for req in requests:
        if req.extents.is_empty:
            continue
        env = req.extents.envelope()
        if env.end <= region.offset or env.offset >= region.end:
            continue
        if not req.extents.clip(region.offset, region.length).is_empty:
            out.append(req.rank)
    return tuple(sorted(out))


def _groups_from_boundaries(
    requests: Sequence[AccessRequest],
    aggregate: ExtentList,
    boundaries: list[int],
) -> list[ObjectGroup]:
    """Materialize groups from sorted cut offsets (incl. both ends)."""
    groups: list[ObjectGroup] = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        if hi <= lo:
            raise PartitionError(f"non-monotone group boundaries at {lo}")
        coverage = aggregate.clip(lo, hi - lo)
        if coverage.is_empty:
            continue
        region = Extent(lo, hi - lo)
        groups.append(
            ObjectGroup(
                group_id=len(groups),
                region=region,
                coverage=coverage,
                member_ranks=_members(requests, region),
            )
        )
    return groups


def _serial_boundaries(
    requests: Sequence[AccessRequest],
    comm: SimComm,
    config: MemoryConsciousConfig,
    env: Extent,
) -> list[int]:
    return serial_boundaries_from(_node_accesses(requests, comm), config, env)


def divide_groups(
    requests: Sequence[AccessRequest],
    comm: SimComm,
    config: MemoryConsciousConfig,
) -> list[ObjectGroup]:
    """Split the workload into aggregation groups per the configured mode."""
    aggregate = ExtentList.union_all([r.extents for r in requests])
    if aggregate.is_empty:
        return []
    env = aggregate.envelope()
    mode = config.group_mode
    if mode == "auto":
        mode = (
            "serial"
            if detect_serial(
                requests, comm, overlap_threshold=config.serial_overlap_threshold
            )
            else "interleaved"
        )
    if mode == "off":
        boundaries = [env.offset, env.end]
    elif mode == "serial":
        boundaries = _serial_boundaries(requests, comm, config, env)
    elif mode == "interleaved":
        boundaries = _interleaved_boundaries(aggregate, config, env)
    else:
        raise PartitionError(f"unknown group mode {mode!r}")
    return _groups_from_boundaries(requests, aggregate, boundaries)


# ------------------------------------------------------------ partition tree


def offset_at_rank(coverage: ExtentList, rank: int) -> int:
    """File offset of the byte with packed-stream rank ``rank``."""
    if coverage.is_empty:
        raise PartitionError("offset_at_rank on empty coverage")
    if not 0 <= rank < coverage.total:
        raise PartitionError(f"rank {rank} outside [0, {coverage.total})")
    lengths = coverage.lengths
    cum = np.cumsum(lengths)
    i = int(np.searchsorted(cum, rank, side="right"))
    before = int(cum[i - 1]) if i > 0 else 0
    return int(coverage.starts[i]) + (rank - before)


def build_tree(
    coverage: ExtentList,
    msg_ind: int,
    *,
    region: Extent | None = None,
    align: Callable[[int], int] | None = None,
    stream: RankStream | None = None,
    base: int = 0,
) -> tuple[PartitionTree, list[ExtentList]]:
    """Recursively bisect until each leaf covers <= ``msg_ind`` bytes.

    Every vertex carries its clipped coverage while it is split; an
    ``align`` snap is tried first and discarded when it would leave a
    half empty, falling back to the raw covered-byte median. Rank
    intervals are counted from ``base`` by the clipped totals alone.

    Returns the tree over ``stream`` (by default ``coverage``'s own)
    plus each leaf's clipped coverage, in leaf order.
    """
    check_positive("msg_ind", msg_ind)
    if coverage.is_empty:
        raise PartitionError("cannot partition an empty access set")
    env = coverage.envelope()
    if region is None:
        region = env
    if env.offset < region.offset or env.end > region.end:
        raise PartitionError(f"coverage {env} escapes region {region}")
    root = PartitionNode(region.offset, region.end, base, base + coverage.total)
    clipped = {}
    stack = [(root, coverage)]
    while stack:
        node, cov = stack.pop()
        total = cov.total
        clipped[id(node)] = cov
        if total <= msg_ind or total < 2:
            continue
        median = offset_at_rank(cov, total // 2)
        candidates = [median]
        if align is not None and (snapped := int(align(median))) != median:
            candidates.insert(0, snapped)
        for split in candidates:
            if not node.lo < split < node.hi:
                continue
            left_cov = cov.clip(node.lo, split - node.lo)
            if left_cov.is_empty or left_cov.total >= total:
                continue
            right_cov = cov.clip(split, node.hi - split)
            mid = node.a + left_cov.total
            node.left = PartitionNode(node.lo, split, node.a, mid)
            node.right = PartitionNode(split, node.hi, mid, node.b)
            stack.append((node.left, left_cov))
            stack.append((node.right, right_cov))
            break
    tree = PartitionTree(root, stream if stream is not None else RankStream(coverage))
    return tree, [clipped[id(leaf)] for leaf in tree.leaves()]


# ------------------------------------------------------------ leaf candidates


class RequestCandidateSource:
    """Leaf candidates found by intersecting every member request."""

    def __init__(
        self,
        member_requests: Sequence[AccessRequest],
        ctx: IOContext,
        stream: RankStream,
    ) -> None:
        self._member_requests = member_requests
        self._ctx = ctx
        self._stream = stream

    def for_leaf(self, leaf: PartitionNode) -> LeafCandidates:
        coverage = self._stream.slice(leaf.a, leaf.b)
        entries = []
        for req in self._member_requests:
            if req.extents.is_empty:
                continue
            env = req.extents.envelope()
            if env.end <= leaf.lo or env.offset >= leaf.hi:
                continue
            nbytes = req.extents.overlap_bytes(coverage)
            if nbytes == 0:
                continue
            entries.append((req.rank, self._ctx.comm.node_of(req.rank), nbytes))
        return leaf_candidates(entries)


def leaf_candidates(entries) -> LeafCandidates:
    """``LeafCandidates`` from ``(rank, node, bytes)`` entries in any
    order, one per rank after summing, hosts in first-rank order."""
    per_rank: dict[int, list[int]] = {}
    for rank, node, nbytes in entries:
        per_rank.setdefault(rank, [node, 0])[1] += nbytes
    ranks = sorted(per_rank)
    host_bytes: dict[int, int] = {}
    for rank in ranks:
        node, nbytes = per_rank[rank]
        host_bytes[node] = host_bytes.get(node, 0) + nbytes
    columns = tuple(
        np.array(column, dtype=np.int64)
        for column in (ranks, [per_rank[r][0] for r in ranks], [per_rank[r][1] for r in ranks])
    )
    hosts = list(host_bytes)  # insertion order: by first rank
    return LeafCandidates(
        columns, 0, len(ranks),
        (hosts, np.array([host_bytes[n] for n in hosts], dtype=np.int64)),
        0, len(hosts),
    )


# ------------------------------------------------------------ whole plan


def plan_requests(
    ctx: IOContext,
    requests: Sequence[AccessRequest],
    config: MemoryConsciousConfig,
) -> CollectivePlan:
    """Plan ``requests`` object by object, stamped like the production plan."""
    by_rank = {r.rank: r for r in requests}
    slots = SlotPlan.build(ctx, config)
    stats = PlacementStats()
    assignments: list[Assignment] = []
    group_sizes: dict[int, int] = {}
    align = (
        ctx.pfs.layout.align_down if ctx.hints.align_domains_to_stripes else None
    )
    stream = RankStream(ExtentList.union_all([r.extents for r in requests]))
    base = 0
    for group in divide_groups(requests, ctx.comm, config):
        tree, _ = build_tree(
            group.coverage, config.msg_ind, region=group.region, align=align,
            stream=stream, base=base,
        )
        base += group.coverage.total
        members = [by_rank[r] for r in group.member_ranks if r in by_rank]
        placed, g_stats = place_group(
            group, tree, ctx, config, slots,
            candidates=RequestCandidateSource(members, ctx, stream),
        )
        assignments.extend(placed)
        stats.merge(g_stats)
        group_sizes[group.group_id] = len(group.member_ranks)
    assignments, moves = rebalance(slots, assignments)
    stats.n_rebalanced += moves
    pool = ctx.machine.remote_pool
    return CollectivePlan(
        domains=build_domains(slots, assignments, stream, ctx, config),
        stats=stats,
        group_sizes=group_sizes,
        msg_ind=config.msg_ind,
        mem_min=config.mem_min,
        pool_capacity=pool.capacity if pool is not None else 0,
    )
