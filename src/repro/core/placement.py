"""Aggregators Location + memory-driven remerging (paper Section 3.3).

The placer realizes the paper's run-time aggregator determination:

**Slot plan** (:class:`SlotPlan`). Each node offers aggregator *slots*
according to its measured available memory ``Mem_avl``: at most ``Nah``
slots, each backed by at least ``Mem_min`` of buffer, the node's
available memory divided evenly among them. Memory-rich nodes offer
many large-buffer slots; starved nodes offer none — this is "identify
the host with maximum system memory available" plus the "< Nah
aggregators" constraint, applied cluster-wide. The plan is a table of
per-slot columns (node, buffer, load), built in one pass over the
per-node availability vector: a node's slots are a contiguous id range,
and borrow-backed slots opened during placement are appended after all
of them.

**Leaf assignment** (:func:`place_group`). Every partition-tree leaf is
assigned to a slot on a host of the processes whose requests intersect
the leaf ("obtain all processes of which I/O requests are located in
this file domain; then compare the processes related hosts"), choosing
the slot with the fewest projected rounds ``(load + bytes) / buffer``.
When *none* of a leaf's candidate hosts offers a slot, the leaf is
**remerged** with its neighbour (partition-tree surgery) and the search
repeats with the expanded domain — the paper's "merged with the domain
nearby to expand the search area until [we] find the aggregator host
that satisfies the memory requirement". A domain that grows to its
whole group without finding a slotted candidate host is placed on the
globally least-loaded slot (any rank may aggregate, as in ROMIO).

**Rebalance** (:func:`rebalance`). After all groups are placed, domains
are moved off the slots with the highest projected round counts until
no move helps — memory-induced load imbalance (a node that must serve
far more data than its memory share) is resolved by shipping work to
memory-rich hosts rather than by stalling the whole collective on one
starved aggregator.

One slot is one aggregator: all its leaves (across groups) merge into a
single file domain processed in buffer-sized rounds
(:func:`build_domains`).
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from ..faults.levers import price_borrow, price_remerge
from ..io.context import IOContext
from ..io.domains import FileDomain
from ..util.errors import PlacementError
from ..util.intervals import Extent, ExtentList
from .config import MemoryConsciousConfig
from .group_division import AggregationGroup
from .partition_tree import PartitionNode, PartitionTree, RankStream

__all__ = [
    "PlacementStats",
    "SlotPlan",
    "Assignment",
    "CandidateSource",
    "LeafCandidates",
    "place_group",
    "rebalance",
    "build_domains",
]


@dataclass(slots=True)
class PlacementStats:
    """Counters describing what placement had to do."""

    n_domains: int = 0
    n_remerges: int = 0
    n_fallbacks: int = 0
    n_rebalanced: int = 0
    n_borrows: int = 0

    def merge(self, other: PlacementStats) -> None:
        self.n_domains += other.n_domains
        self.n_remerges += other.n_remerges
        self.n_fallbacks += other.n_fallbacks
        self.n_rebalanced += other.n_rebalanced
        self.n_borrows += other.n_borrows


class SlotPlan:
    """All aggregator slots the cluster's memory supports right now.

    A slot table: slot ``j`` sits on node ``node[j]`` with ``buffer[j]``
    bytes of buffer and ``load[j]`` covered bytes assigned so far, each a
    plain list so the per-leaf scans index Python ints. A node's initial
    slots are the contiguous range ``start[n]:start[n + 1]``; slots
    opened later (borrow-backed ones) are appended after all of them
    and listed per node in ``extra``. A borrow-backed slot also records
    ``borrows[j] = (borrowed_bytes, borrow_link, borrow_price_s,
    local_price_s)``: that much of its buffer lives in the machine's
    remote-memory pool over access link ``borrow_link``, opened because
    borrowing priced at ``borrow_price_s`` beat the local alternative
    at ``local_price_s``.

    ``pool_remaining`` is the *planner's* budget of remote-pool bytes —
    a local counter seeded from the machine's pool capacity, decremented
    as borrow-backed slots are created. Planning never touches the live
    :class:`~repro.cluster.remote_pool.RemotePool` ledger; execution
    re-applies borrows from the plan's provenance.
    """

    def __init__(
        self,
        counts: Sequence[int],
        buffers: Sequence[int],
        *,
        pool_remaining: int = 0,
    ) -> None:
        """``counts[n]`` initial slots on node ``n``, with ``buffers``
        giving every slot's buffer, node by node."""
        per_node = np.asarray(counts, dtype=np.int64)
        self.start: list[int] = np.concatenate(([0], np.cumsum(per_node))).tolist()
        self.node: list[int] = np.repeat(np.arange(per_node.size), per_node).tolist()
        self.buffer: list[int] = np.asarray(buffers, dtype=np.int64).tolist()
        if len(self.buffer) != self.start[-1]:
            raise PlacementError("one buffer per slot is required")
        self.load: list[int] = [0] * len(self.buffer)
        self.extra: dict[int, list[int]] = {}
        self.borrows: dict[int, tuple[int, int, float, float]] = {}
        self.pool_remaining = pool_remaining
        self._link_borrowers: dict[int, int] = {}

    @classmethod
    def build(cls, ctx: IOContext, config: MemoryConsciousConfig) -> SlotPlan:
        pool = ctx.machine.remote_pool
        pool_remaining = pool.capacity if pool is not None else 0
        n_nodes = ctx.cluster.n_nodes
        if not config.dynamic_placement:
            # Ablation A3: memory-oblivious placement — one aggregator
            # slot per node with the hinted buffer size, exactly like the
            # baseline's aggregator choice (paging included), but still
            # under MC-CIO's grouping and partitioning.
            return cls(
                [1] * n_nodes,
                [ctx.hints.cb_buffer_size] * n_nodes,
                pool_remaining=pool_remaining,
            )
        avail = ctx.cluster.available_by_node()
        counts = np.clip(avail // max(config.mem_min, 1), 0, config.nah)
        if not counts.any():
            # Every node is starved: degrade to one paging slot per node
            # with the minimum buffer, so the operation still spreads.
            return cls(
                [1] * n_nodes,
                [max(config.mem_min, 1)] * n_nodes,
                pool_remaining=pool_remaining,
            )
        # The node's whole available memory is divided among its slots;
        # Msg_ind governs *domain granularity*, not buffer size — a slot
        # with a large share simply covers several Msg_ind-sized domains
        # per round.
        slotted = counts > 0
        buffers = np.repeat(avail[slotted] // counts[slotted], counts[slotted])
        return cls(counts, buffers, pool_remaining=pool_remaining)

    def add_borrow_slot(
        self,
        node: int,
        buffer_bytes: int,
        borrow: tuple[int, int, float, float],
    ) -> int:
        """Append a borrow-backed slot on ``node``; returns its id."""
        slot = len(self.buffer)
        self.node.append(node)
        self.buffer.append(buffer_bytes)
        self.load.append(0)
        self.extra.setdefault(node, []).append(slot)
        self.borrows[slot] = borrow
        link = borrow[1]
        self._link_borrowers[link] = self._link_borrowers.get(link, 0) + 1
        return slot

    def borrowers_on_link(self, link: int) -> int:
        """Borrow-backed slots already planned onto access link ``link``."""
        return self._link_borrowers.get(link, 0)

    def on_nodes(self, node_ids: Iterable[int]) -> list[int]:
        """Slot ids on ``node_ids``, node by node: each node's initial
        range, then its appended slots."""
        start, extra = self.start, self.extra
        slots: list[int] = []
        for node in node_ids:
            slots.extend(range(start[node], start[node + 1]))
            if node in extra:
                slots.extend(extra[node])
        return slots

    def best_for(self, node_ids: Iterable[int], covered: int) -> int | None:
        """Least-projected-rounds slot among ``node_ids`` (None if none).

        Scans the slots in :meth:`on_nodes` order; the key is
        ``((load + covered) / buffer, -buffer)`` and the first minimum
        wins.
        """
        load, buffer = self.load, self.buffer
        best: int | None = None
        best_rounds = best_buffer = 0.0
        for j in self.on_nodes(node_ids):
            rounds = (load[j] + covered) / buffer[j]
            if (
                best is None
                or rounds < best_rounds
                or (rounds == best_rounds and buffer[j] > best_buffer)
            ):
                best, best_rounds, best_buffer = j, rounds, buffer[j]
        return best

    def best_anywhere(self, covered: int) -> int:
        """:meth:`best_for` over every node with a slot: nodes with
        initial slots in node order, then the others in the order their
        first slot was appended."""
        starts = self.start
        nodes = [n for n in range(len(starts) - 1) if starts[n + 1] > starts[n]]
        nodes += [n for n in self.extra if starts[n + 1] == starts[n]]
        slot = self.best_for(nodes, covered)
        assert slot is not None  # plan construction guarantees >= 1 slot
        return slot

    def max_rounds(self) -> float:
        return max(
            (load / buffer for load, buffer in zip(self.load, self.buffer)),
            default=0.0,
        )


class LeafCandidates:
    """A leaf's intersecting processes, as columns.

    Entry ``i`` says rank ``ranks[i]``, hosted on ``nodes[i]``, has
    ``nbytes[i]`` bytes in the leaf. Ranks ascend, except that a leaf
    merged from several initial leaves keeps each one's entries, so a
    rank may appear once per initial leaf; consumers sum per rank.
    ``hosts`` lists the distinct host nodes in order of their first
    intersecting rank, with ``host_bytes`` their byte sums. That host
    order feeds slot tie-breaking (``best_for``, ``rebalance``), so
    every candidate source must produce it.

    The leaf holds no arrays of its own: its entries are rows
    ``lo:hi`` of ``columns``, a ``(ranks, nodes, nbytes)`` triple, and
    its hosts rows ``h0:h1`` of ``host_columns``, a ``(hosts,
    host_bytes)`` pair — columns that a plan's leaf table shares among
    all its initial leaves.
    """

    __slots__ = ("columns", "lo", "hi", "host_columns", "h0", "h1")

    def __init__(
        self,
        columns: tuple[np.ndarray, np.ndarray, np.ndarray],
        lo: int,
        hi: int,
        host_columns: tuple[list[int], np.ndarray],
        h0: int,
        h1: int,
    ) -> None:
        self.columns = columns
        self.lo = lo
        self.hi = hi
        self.host_columns = host_columns
        self.h0 = h0
        self.h1 = h1

    @property
    def ranks(self) -> np.ndarray:
        return self.columns[0][self.lo:self.hi]

    @property
    def nodes(self) -> np.ndarray:
        return self.columns[1][self.lo:self.hi]

    @property
    def nbytes(self) -> np.ndarray:
        return self.columns[2][self.lo:self.hi]

    @property
    def hosts(self) -> list[int]:
        return self.host_columns[0][self.h0:self.h1]

    @property
    def host_bytes(self) -> np.ndarray:
        return self.host_columns[1][self.h0:self.h1]


def _group_sum(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``values`` per distinct key.

    Returns the ascending distinct keys, their sums, and the index of
    each key's first occurrence in ``keys``.
    """
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    new = np.empty(ordered.size, bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return ordered[first], np.add.reduceat(values[order], first), order[first]


@dataclass(frozen=True, slots=True)
class Assignment:
    """One partition-tree leaf bound to a slot.

    The leaf's bytes are the ranks ``[a, b)`` of the plan's aggregate
    stream (see :class:`~repro.core.partition_tree.RankStream`).
    """

    slot_id: int
    a: int
    b: int
    group_id: int
    # every intersecting process; used for affinity and by the rebalancer.
    candidates: LeafCandidates
    # True when this leaf absorbed a removed neighbour (tree surgery);
    # such leaves may legitimately exceed Msg_ind covered bytes.
    remerged: bool = False

    @property
    def nbytes(self) -> int:
        return self.b - self.a


class CandidateSource(Protocol):
    """Anything that can name a leaf's candidate hosts.

    ``for_leaf`` returns the leaf's :class:`LeafCandidates`; sources
    must agree on it, host order included, for plans to be
    reproducible.
    """

    def for_leaf(self, leaf: PartitionNode) -> LeafCandidates: ...


def place_group(
    group: AggregationGroup,
    tree: PartitionTree,
    ctx: IOContext,
    config: MemoryConsciousConfig,
    plan: SlotPlan,
    *,
    candidates: CandidateSource,
) -> tuple[list[Assignment], PlacementStats]:
    """Assign every leaf of one group's partition tree to a slot.

    Mutates ``tree`` (remerging) and ``plan`` (slot loads). Returns the
    leaf-to-slot assignments (merged into per-slot file domains by
    :func:`build_domains` once every group is placed) plus counters.
    ``candidates`` names each leaf's intersecting processes.
    """
    stats = PlacementStats()
    assigned: dict[int, Assignment] = {}  # id(leaf) -> assignment
    remerged_ids: set[int] = set()  # id(leaf) for remerge takers

    # Leaves in tree order, kept in step with remerge surgery; every leaf
    # before `pos` is assigned.
    leaves = tree.leaves()
    pos = 0
    guard = 4 * max(len(leaves), 1) + 8
    while True:
        guard -= 1
        if guard < 0:
            raise PlacementError("placement failed to converge")
        while pos < len(leaves) and id(leaves[pos]) in assigned:
            pos += 1
        if pos == len(leaves):
            break
        leaf = leaves[pos]
        covered = leaf.b - leaf.a
        cands = candidates.for_leaf(leaf)
        if not cands.hosts:
            raise PlacementError(
                f"group {group.group_id}: no process intersects domain "
                f"[{leaf.lo}, {leaf.hi})"
            )
        slot = plan.best_for(cands.hosts, covered)
        if slot is None:
            # Every candidate host is memory-starved. Before remerging
            # away (the paper's only move), price backing a fresh slot
            # with remote-pool memory against the local alternative.
            slot = _borrow_slot(plan, cands, covered, ctx, config, stats)
        if slot is None:
            if config.enable_remerge and leaf is not tree.root:
                taker = tree.remove_leaf(leaf)
                stats.n_remerges += 1
                remerged_ids.discard(id(leaf))
                remerged_ids.add(id(taker))
                prior = assigned.pop(id(taker), None)
                if prior is not None:
                    # The taker already absorbed `covered`; undo its old
                    # contribution to its slot.
                    plan.load[prior.slot_id] -= taker.covered_bytes - covered
                # Surgery is local: the departed leaf's in-order
                # neighbour on the taker's side (its sibling in case 5a,
                # the taker itself in case 5b) becomes the taker, and
                # everything before it stays assigned.
                del leaves[pos]
                if taker.lo != leaf.lo:
                    pos -= 1
                leaves[pos] = taker
                continue
            slot = plan.best_anywhere(covered)
            stats.n_fallbacks += 1
        plan.load[slot] += covered
        assigned[id(leaf)] = Assignment(
            slot_id=slot,
            a=leaf.a,
            b=leaf.b,
            group_id=group.group_id,
            candidates=cands,
            remerged=id(leaf) in remerged_ids,
        )

    assignments = [assigned[id(leaf)] for leaf in leaves]
    stats.n_domains += len(assignments)
    return assignments, stats


# Control record exchanged when a domain is re-homed (same constant the
# round engine uses to price mid-run re-coordination).
_RECOORD_BYTES = 16


def _borrow_slot(
    plan: SlotPlan,
    cands: LeafCandidates,
    covered: int,
    ctx: IOContext,
    config: MemoryConsciousConfig,
    stats: PlacementStats,
) -> int | None:
    """Open a borrow-backed slot on a candidate host, if it prices well.

    The local alternative is remerging the leaf onto a neighbour (ship
    the staged bytes through the node path); borrowing backs a
    ``Mem_min`` buffer with pool bytes paid for as round-trips over the
    slot's access link. Both prices are recorded on the slot (and land
    in the plan's provenance) so verifier rule PV115 can re-check that
    borrowed slots were never the expensive choice. Returns ``None``
    when there is no pool, no budget, or borrowing prices worse.
    """
    pool = ctx.machine.remote_pool
    if pool is None or plan.pool_remaining <= 0:
        return None
    # Candidate host holding the most leaf bytes; ties -> lowest node.
    _, node_id = max(
        zip(cands.host_bytes.tolist(), cands.hosts), key=lambda bn: (bn[0], -bn[1])
    )
    node = ctx.cluster.nodes[node_id]
    buffer_bytes = max(config.mem_min, 1)
    deficit = buffer_bytes - max(node.available_memory, 0)
    if deficit <= 0 or deficit > plan.pool_remaining:
        return None
    link = node_id % pool.n_links
    recoord = ctx.comm.allgather_time(_RECOORD_BYTES)
    spec = ctx.machine.node
    local_price = price_remerge(
        covered,
        min(spec.mem_bandwidth, spec.nic_bandwidth),
        recoord_s=recoord,
    )
    borrow_price = price_borrow(
        covered,
        buffer_bytes,
        deficit,
        link_bandwidth=pool.link_bandwidth,
        latency_s=pool.latency_s,
        contention=1 + plan.borrowers_on_link(link),
        recoord_s=recoord,
    )
    if borrow_price > local_price:
        return None
    slot = plan.add_borrow_slot(
        node_id, buffer_bytes, (deficit, link, borrow_price, local_price)
    )
    plan.pool_remaining -= deficit
    stats.n_borrows += 1
    return slot


def rebalance(
    plan: SlotPlan,
    assignments: list[Assignment],
    *,
    max_moves: int | None = None,
) -> tuple[list[Assignment], int]:
    """Move domains off the most-loaded slots until no move helps.

    Greedy makespan reduction: repeatedly take the slot with the highest
    projected round count and move one of its assignments to the slot
    that most lowers the pairwise maximum — preferring slots on the
    assignment's own candidate hosts (locality), falling back to any
    slot. Returns the updated assignment list and the move count.

    The greedy updates the plan's load column in place, with int64
    twins of loads and buffers for the scans. The tie-breaks are exact:
    the worst slot is the first in slot order with the maximal ``load / buffer``
    (int64 division equals Python's while loads stay below 2**53); its
    assignments are tried smallest first, equal sizes in the order they
    joined the slot; local targets are scanned before remote ones, and
    within a scan the first valid target wins unless a later one is
    better by more than ``eps`` (see :func:`_pick`).
    """
    if not assignments:
        return assignments, 0
    if max_moves is None:
        max_moves = 4 * len(assignments)
    # Python ints for exact scalar division, int64 twins for the scans.
    load, buffer = plan.load, plan.buffer
    load_arr = np.array(load, dtype=np.int64)
    buffer_arr = np.array(buffer, dtype=np.int64)
    rounds = load_arr / buffer_arr
    # Each slot's assignments as (bytes, arrival, index), kept sorted.
    members: dict[int, list[tuple[int, int, int]]] = {}
    for i, a in enumerate(assignments):
        members.setdefault(a.slot_id, []).append((a.nbytes, i, i))
    for entries in members.values():
        entries.sort()
    arrival = len(assignments)
    slot_of = [a.slot_id for a in assignments]
    moves = 0
    eps = 1e-9

    while moves < max_moves:
        worst = int(rounds.argmax())
        worst_rounds = load[worst] / buffer[worst]
        if worst_rounds <= 0:
            break
        limit = worst_rounds - eps
        target, k = -1, 0
        for k, (a_bytes, _, i) in enumerate(members.get(worst, ())):
            after = (load[worst] - a_bytes) / buffer[worst]
            best = None
            for j in plan.on_nodes(assignments[i].candidates.hosts):
                if j == worst:
                    continue
                new_max = max(after, (load[j] + a_bytes) / buffer[j])
                if new_max < limit and (best is None or new_max < best - eps):
                    target, best = j, new_max
            if target < 0:  # no local move: scan every slot
                values = np.maximum(after, (load_arr + a_bytes) / buffer_arr)
                values[worst] = np.inf
                target = _pick(values, limit, eps)
            if target >= 0:
                break  # smallest movable assignment wins
        if target < 0:
            break
        a_bytes, _, i = members[worst].pop(k)
        insort(members.setdefault(target, []), (a_bytes, arrival, i))
        arrival += 1
        for slot, delta in ((worst, -a_bytes), (target, a_bytes)):
            load[slot] += delta
            load_arr[slot] = load[slot]
            rounds[slot] = load[slot] / buffer[slot]
        slot_of[i] = target
        moves += 1
    out = [
        a if a.slot_id == slot else replace(a, slot_id=slot)
        for a, slot in zip(assignments, slot_of)
    ]
    return out, moves


def _pick(values: np.ndarray, limit: float, eps: float) -> int:
    """The target a scan over ``values`` (each target's ``new_max``) settles on.

    The scan takes the first target below ``limit``, then moves on only
    to a target below the current best by more than ``eps``; returns -1
    when no target is below ``limit``. The current best never exceeds
    the running minimum by more than ``eps`` (every value passed over is
    at least ``best - eps``), so only targets that lower the running
    minimum can take over, and the scan is replayed over those alone.
    """
    values[values >= limit] = np.inf
    running = np.minimum.accumulate(values)
    if running[-1] == np.inf:
        return -1
    lowers = (running < np.concatenate(([np.inf], running[:-1]))).nonzero()[0]
    best, best_value = -1, np.inf
    for j, value in zip(lowers.tolist(), values[lowers].tolist()):
        if best < 0 or value < best_value - eps:
            best, best_value = j, value
    return best


def build_domains(
    plan: SlotPlan,
    assignments: Sequence[Assignment],
    stream: RankStream,
    ctx: IOContext,
    config: MemoryConsciousConfig,
) -> list[FileDomain]:
    """Merge each slot's assigned leaves (across groups) into one domain.

    One slot is one aggregator process: it holds one buffer and works
    through everything assigned to it in buffer-sized rounds. Domains of
    a slot that served several groups carry ``group_id = -1``.

    A slot's leaves are rank intervals of ``stream``; those that touch
    form one run, and the slot's coverage is its runs sliced in one
    pass — the union of its leaves' coverages, since two leaves' bytes
    meet in offset only where their ranks meet. The aggregator is the
    slot-host rank with the most bytes in the slot's leaves (ties to the
    lowest rank), or the lowest such rank without dynamic placement.
    """
    n = len(assignments)
    if n == 0:
        return []
    slot = np.fromiter((x.slot_id for x in assignments), np.int64, n)
    a = np.fromiter((x.a for x in assignments), np.int64, n)
    b = np.fromiter((x.b for x in assignments), np.int64, n)
    order = np.lexsort((a, slot))
    slot_s, a_s, b_s = slot[order], a[order], b[order]
    new_slot = np.r_[True, slot_s[1:] != slot_s[:-1]]
    if np.any(a_s[1:][~new_slot[1:]] < b_s[:-1][~new_slot[1:]]):
        raise PlacementError("a slot's leaves overlap")
    new_run = new_slot | np.r_[True, a_s[1:] != b_s[:-1]]
    run_first = np.flatnonzero(new_run)
    run_last = np.r_[run_first[1:], n] - 1
    starts, ends, first = stream.slice_runs(a_s[run_first], b_s[run_last])
    slot_run = np.flatnonzero(new_slot[run_first])  # each slot's first run
    ext_lo = first[slot_run].tolist()
    ext_hi = first[np.r_[slot_run[1:], run_first.size]].tolist()
    item_first = np.flatnonzero(new_slot)
    group = np.fromiter((x.group_id for x in assignments), np.int64, n)[order]
    group_lo = np.minimum.reduceat(group, item_first).tolist()
    group_hi = np.maximum.reduceat(group, item_first).tolist()
    remerged = np.fromiter((x.remerged for x in assignments), bool, n)[order]
    any_remerged = np.logical_or.reduceat(remerged, item_first).tolist()
    n_leaves = np.diff(np.r_[item_first, n]).tolist()
    aggregators = _affinity_ranks(plan, assignments, slot, config)

    domains: list[FileDomain] = []
    for k, slot_id in enumerate(slot_s[item_first].tolist()):
        coverage = ExtentList(
            starts[ext_lo[k]:ext_hi[k]], ends[ext_lo[k]:ext_hi[k]], _trusted=True
        )
        rank = aggregators.get(slot_id)
        if rank is None:
            node = plan.node[slot_id]
            ranks = ctx.cluster.ranks_on_node(node)
            if ranks.size == 0:
                raise PlacementError(f"node {node} hosts no ranks")
            rank = int(ranks[0])
        env = coverage.envelope()
        buffer_bytes = min(plan.buffer[slot_id], max(coverage.total, 1))
        # Borrow provenance rides through to the plan: the borrowed
        # share can never exceed the (possibly coverage-clamped) buffer.
        slot_borrowed, link, borrow_price, local_price = plan.borrows.get(
            slot_id, (0, 0, 0.0, 0.0)
        )
        borrowed = min(slot_borrowed, buffer_bytes)
        domains.append(
            FileDomain(
                region=Extent(env.offset, env.length),
                coverage=coverage,
                aggregator=rank,
                buffer_bytes=buffer_bytes,
                group_id=group_lo[k] if group_lo[k] == group_hi[k] else -1,
                n_leaves=n_leaves[k],
                remerged=any_remerged[k],
                borrowed_bytes=borrowed,
                borrow_link=link if borrowed > 0 else 0,
                borrow_lever="borrow" if borrowed > 0 else "",
                borrow_price_s=borrow_price if borrowed > 0 else 0.0,
                local_price_s=local_price if borrowed > 0 else 0.0,
            )
        )
    domains.sort(key=lambda d: d.region.offset)
    return domains


def _affinity_ranks(
    plan: SlotPlan,
    assignments: Sequence[Assignment],
    slot: np.ndarray,
    config: MemoryConsciousConfig,
) -> dict[int, int]:
    """Each slot's aggregator among the candidate ranks on its host.

    Sums every leaf's bytes per (slot, rank) for the ranks on the slot's
    node, then takes the most bytes, ties to the lowest rank (data
    affinity), or just the lowest rank without dynamic placement. Slots
    whose host holds none of their leaves' data are absent.
    """
    cands = [x.candidates for x in assignments]
    ranks = np.concatenate([c.ranks for c in cands])
    nodes = np.concatenate([c.nodes for c in cands])
    nbytes = np.concatenate([c.nbytes for c in cands])
    lengths = np.fromiter((c.hi - c.lo for c in cands), np.int64, len(cands))
    host = np.fromiter((plan.node[j] for j in slot.tolist()), np.int64, slot.size)
    entry_slot = np.repeat(slot, lengths)
    on_host = nodes == np.repeat(host, lengths)
    if not on_host.any():
        return {}
    span = int(ranks.max()) + 1
    key, sums, _ = _group_sum(entry_slot[on_host] * span + ranks[on_host], nbytes[on_host])
    u_slot, u_rank = key // span, key % span
    if config.dynamic_placement:
        pick = np.lexsort((u_rank, -sums, u_slot))
        u_slot, u_rank = u_slot[pick], u_rank[pick]
    first = np.r_[True, u_slot[1:] != u_slot[:-1]]
    return dict(zip(u_slot[first].tolist(), u_rank[first].tolist()))
