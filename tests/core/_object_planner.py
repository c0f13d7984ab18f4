"""Per-request object planner: the reference the columnar planner must match.

The production planner (:func:`repro.core.columnar.plan_columnar`) works
on flattened ``(offset, length, rank)`` columns. This module plans the
same collective the slow, obvious way — one :class:`AccessRequest` at a
time — and exists only so tests can demand bit-identical plans from the
two. It re-implements exactly the steps where the engines differ:

* group division (:func:`divide_groups`): per-node envelopes by unioning
  each node's request extents, members by clipping every request;
* the partition tree (:func:`build_tree`): recursive bisection that
  clips each vertex's coverage and finds the median by a fresh prefix
  sum per split (:func:`offset_at_rank`);
* leaf candidates (:class:`RequestCandidateSource`): every member
  request intersected with the leaf's coverage.

Everything the engines share — the boundary cut rules, the slot plan,
``place_group``, ``rebalance`` and ``build_domains`` — is the production
code itself, so a parity failure points at one of the three steps above.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.core.config import MemoryConsciousConfig
from repro.core.group_division import (
    AggregationGroup,
    _infos_serial,
    _interleaved_boundaries,
    _NodeAccess,
    _serial_boundaries_from,
)
from repro.core.partition_tree import PartitionNode, PartitionTree
from repro.core.placement import (
    Assignment,
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


def _node_accesses(
    requests: Sequence[AccessRequest], comm: SimComm
) -> list[_NodeAccess]:
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
        infos.append(_NodeAccess(node_id, env.offset, env.end, cov.total))
    infos.sort(key=lambda n: (n.start, n.end))
    return infos


def detect_serial(
    requests: Sequence[AccessRequest],
    comm: SimComm,
    *,
    overlap_threshold: float,
) -> bool:
    """True when per-node regions are ordered with little overlap."""
    return _infos_serial(_node_accesses(requests, comm), overlap_threshold)


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
) -> list[AggregationGroup]:
    """Materialize groups from sorted cut offsets (incl. both ends)."""
    groups: list[AggregationGroup] = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        if hi <= lo:
            raise PartitionError(f"non-monotone group boundaries at {lo}")
        coverage = aggregate.clip(lo, hi - lo)
        if coverage.is_empty:
            continue
        region = Extent(lo, hi - lo)
        groups.append(
            AggregationGroup(
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
    return _serial_boundaries_from(_node_accesses(requests, comm), config, env)


def divide_groups(
    requests: Sequence[AccessRequest],
    comm: SimComm,
    config: MemoryConsciousConfig,
) -> list[AggregationGroup]:
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
) -> PartitionTree:
    """Recursively bisect until each leaf covers <= ``msg_ind`` bytes.

    Every vertex carries its clipped coverage while it is split; an
    ``align`` snap is tried first and discarded when it would leave a
    half empty, falling back to the raw covered-byte median.
    """
    check_positive("msg_ind", msg_ind)
    if coverage.is_empty:
        raise PartitionError("cannot partition an empty access set")
    env = coverage.envelope()
    if region is None:
        region = env
    if env.offset < region.offset or env.end > region.end:
        raise PartitionError(f"coverage {env} escapes region {region}")
    root = PartitionNode(region.offset, region.end, coverage)
    stack = [root]
    while stack:
        node = stack.pop()
        cov = node.coverage
        assert cov is not None
        total = cov.total
        if total <= msg_ind or total < 2:
            continue
        median = offset_at_rank(cov, total // 2)
        candidates = [median]
        if align is not None and (snapped := align(median)) != median:
            candidates.insert(0, snapped)
        for split in candidates:
            if not node.lo < split < node.hi:
                continue
            left_cov = cov.clip(node.lo, split - node.lo)
            if left_cov.is_empty or left_cov.total >= total:
                continue
            right_cov = cov.clip(split, node.hi - split)
            node.left = PartitionNode(node.lo, split, left_cov, parent=node)
            node.right = PartitionNode(split, node.hi, right_cov, parent=node)
            node.coverage = None
            stack.append(node.left)
            stack.append(node.right)
            break
    return PartitionTree(root)


# ------------------------------------------------------------ leaf candidates


class RequestCandidateSource:
    """Leaf candidates found by intersecting every member request."""

    def __init__(
        self, member_requests: Sequence[AccessRequest], ctx: IOContext
    ) -> None:
        self._member_requests = member_requests
        self._ctx = ctx

    def for_leaf(
        self, leaf: PartitionNode
    ) -> dict[int, tuple[tuple[int, int], ...]]:
        assert leaf.coverage is not None
        hosts: dict[int, list[tuple[int, int]]] = {}
        for req in self._member_requests:
            if req.extents.is_empty:
                continue
            env = req.extents.envelope()
            if env.end <= leaf.lo or env.offset >= leaf.hi:
                continue
            nbytes = req.extents.overlap_bytes(leaf.coverage)
            if nbytes == 0:
                continue
            node_id = self._ctx.comm.node_of(req.rank)
            hosts.setdefault(node_id, []).append((req.rank, nbytes))
        return {node: tuple(ranks) for node, ranks in hosts.items()}


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
    for group in divide_groups(requests, ctx.comm, config):
        tree = build_tree(
            group.coverage, config.msg_ind, region=group.region, align=align
        )
        members = [by_rank[r] for r in group.member_ranks if r in by_rank]
        placed, g_stats = place_group(
            group, tree, ctx, config, slots,
            candidates=RequestCandidateSource(members, ctx),
        )
        assignments.extend(placed)
        stats.merge(g_stats)
        group_sizes[group.group_id] = len(group.member_ranks)
    assignments, moves = rebalance(slots, assignments)
    stats.n_rebalanced += moves
    pool = ctx.machine.remote_pool
    return CollectivePlan(
        domains=build_domains(slots, assignments, ctx, config),
        stats=stats,
        group_sizes=group_sizes,
        msg_ind=config.msg_ind,
        mem_min=config.mem_min,
        pool_capacity=pool.capacity if pool is not None else 0,
    )
