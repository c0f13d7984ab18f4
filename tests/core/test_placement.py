"""Tests for slot planning, aggregator placement, remerging, rebalance."""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import scaled_testbed
from repro.core import (
    LeafTable,
    MemoryConsciousConfig,
    PartitionTree,
    RankStream,
    SlotPlan,
    divide_groups_flat,
    place_group,
    rebalance,
)
from repro.core.placement import Assignment, build_domains
from repro.io import make_context
from repro.mpi import AccessRequest, flatten_requests
from repro.util import ExtentList, kib, mib

from ._object_planner import RequestCandidateSource, leaf_candidates


def make_ctx(n_nodes=4, procs_per_node=2, **kw):
    machine = scaled_testbed(n_nodes, cores_per_node=procs_per_node)
    return make_context(
        machine, n_nodes * procs_per_node, procs_per_node=procs_per_node,
        seed=3, **kw
    )


def serial_requests(n_procs, nbytes):
    return [
        AccessRequest(p, ExtentList.single(p * nbytes, nbytes))
        for p in range(n_procs)
    ]


CFG = MemoryConsciousConfig(
    msg_ind=mib(4), msg_group=mib(64), nah=2, mem_min=mib(1), buffer_floor=mib(1) // 16
)


class TestSlotPlan:
    def test_slots_respect_nah_and_mem_min(self):
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(mib(8))
        plan = SlotPlan.build(ctx, CFG)
        # 8 MiB / 1 MiB mem_min -> 8, capped at nah=2 -> 2 slots/node.
        for node in ctx.cluster.nodes:
            assert len(plan.on_nodes([node.node_id])) == 2
            for slot in plan.on_nodes([node.node_id]):
                assert plan.buffer[slot] == mib(4)

    def test_starved_node_offers_no_slots(self):
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(mib(8))
        ctx.cluster.nodes[1].memory.set_reserved(
            ctx.machine.node.mem_capacity
        )  # node 1: zero available
        plan = SlotPlan.build(ctx, CFG)
        assert plan.on_nodes([1]) == []
        assert len(plan.buffer) == 6

    def test_fully_starved_cluster_degrades_gracefully(self):
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(0)
        plan = SlotPlan.build(ctx, CFG)
        assert len(plan.buffer) == ctx.cluster.n_nodes
        assert all(buffer == CFG.mem_min for buffer in plan.buffer)

    def test_best_for_prefers_emptier_bigger_slots(self):
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(mib(8))
        plan = SlotPlan.build(ctx, CFG)
        first = plan.best_for([0, 1], mib(2))
        plan.load[first] += mib(2)
        second = plan.best_for([0, 1], mib(2))
        assert second != first


@dataclass(slots=True)
class _RefSlot:
    """One aggregator slot as an object: the slot plan before the table."""

    slot_id: int
    node_id: int
    buffer_bytes: int
    load: int = 0
    borrowed_bytes: int = 0
    borrow_link: int = 0
    borrow_price_s: float = 0.0
    local_price_s: float = 0.0

    def projected_rounds(self, extra: int = 0) -> float:
        return (self.load + extra) / self.buffer_bytes


class _RefSlotPlan:
    """The per-``Slot`` slot plan the table replaced, kept as a reference."""

    def __init__(self, slots):
        self.slots = slots
        self.by_node = {}
        for slot in slots:
            self.by_node.setdefault(slot.node_id, []).append(slot)

    @classmethod
    def build(cls, ctx, config):
        if not config.dynamic_placement:
            return cls(
                [
                    _RefSlot(i, node.node_id, ctx.hints.cb_buffer_size)
                    for i, node in enumerate(ctx.cluster.nodes)
                ]
            )
        slots = []
        for node in ctx.cluster.nodes:
            avail = node.available_memory
            k = int(min(config.nah, avail // max(config.mem_min, 1)))
            if k < 1:
                continue
            buffer_bytes = int(avail // k)
            for _ in range(k):
                slots.append(_RefSlot(len(slots), node.node_id, buffer_bytes))
        if not slots:
            for node in ctx.cluster.nodes:
                slots.append(_RefSlot(len(slots), node.node_id, max(config.mem_min, 1)))
        return cls(slots)

    def add_slot(self, slot):
        self.slots.append(slot)
        self.by_node.setdefault(slot.node_id, []).append(slot)

    def borrowers_on_link(self, link):
        return sum(
            1 for s in self.slots if s.borrowed_bytes > 0 and s.borrow_link == link
        )

    def best_for(self, node_ids, covered):
        best = None
        best_key = None
        for node_id in node_ids:
            for slot in self.by_node.get(node_id, ()):
                key = (slot.projected_rounds(covered), -slot.buffer_bytes)
                if best_key is None or key < best_key:
                    best, best_key = slot, key
        return best

    def best_anywhere(self, covered):
        return self.best_for(self.by_node.keys(), covered)


_SLOT_NODES = 6


@st.composite
def _availability(draw):
    """Per-node available memory (starved, oversubscribed and rich nodes)
    and a slot-plan config."""
    unit = mib(1)
    avail = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0, -2 * unit, unit - 1]),  # starved
                st.integers(-3 * unit, unit - 1),  # maybe oversubscribed
                st.sampled_from([unit, 2 * unit, 4 * unit, 8 * unit]),  # ties
                st.integers(unit, 40 * unit),
            ),
            min_size=_SLOT_NODES,
            max_size=_SLOT_NODES,
        )
    )
    cfg = CFG.replace(
        nah=draw(st.integers(1, 8)),
        mem_min=draw(st.sampled_from([unit, 3 * unit, 5 * unit + 7])),
        dynamic_placement=draw(st.booleans()),
    )
    return avail, cfg


def _set_available(ctx, avail):
    cap = ctx.machine.node.mem_capacity
    for node, value in zip(ctx.cluster.nodes, avail):
        node.memory.set_reserved(cap - max(value, 0))
        if value < 0:
            node.memory.allocate("pressure", -value, allow_oversubscribe=True)


@settings(deadline=None, max_examples=200)
@given(
    case=_availability(),
    borrows=st.lists(
        st.tuples(
            st.integers(0, _SLOT_NODES - 1),
            st.one_of(st.sampled_from([mib(1), mib(2), mib(4)]), st.integers(1, mib(4))),
            st.integers(0, 2),
        ),
        max_size=4,
    ),
    # Few distinct loads and sizes, so projected rounds often tie.
    loads=st.lists(
        st.one_of(st.sampled_from([0, mib(1), mib(4)]), st.integers(0, mib(64))),
        max_size=60,
    ),
    queries=st.lists(
        st.tuples(
            st.lists(st.integers(0, _SLOT_NODES - 1), max_size=4, unique=True),
            st.one_of(st.sampled_from([0, mib(1), mib(2)]), st.integers(0, mib(8))),
        ),
        min_size=1,
        max_size=8,
    ),
)
@example(case=([0] * _SLOT_NODES, CFG), borrows=[], loads=[], queries=[([0, 1], 0)])
# Node 0's one initial slot ties an appended slot on node 0 itself, and
# two appended slots on slotless nodes 3 and 2 tie each other.
@example(
    case=([mib(4)] + [0] * (_SLOT_NODES - 1), CFG.replace(nah=1)),
    borrows=[(0, mib(4), 0), (3, mib(2), 1), (2, mib(2), 2)],
    loads=[mib(4), mib(4)],
    queries=[([0], 0), ([2, 3, 0], mib(2))],
)
def test_slot_table_matches_per_slot_objects(case, borrows, loads, queries):
    """The slot table builds the same (node, buffer) slots as the
    per-``Slot`` plan, and picks the same slot for any hosts and loads,
    appended borrow slots included."""
    avail, cfg = case
    ctx = make_ctx(n_nodes=_SLOT_NODES)
    _set_available(ctx, avail)
    plan = SlotPlan.build(ctx, cfg)
    ref = _RefSlotPlan.build(ctx, cfg)
    assert list(zip(plan.node, plan.buffer)) == [
        (s.node_id, s.buffer_bytes) for s in ref.slots
    ]
    for k, (node, buffer, link) in enumerate(borrows):
        borrow = (buffer // 2 + 1, link, 0.5 + k, 1.5 + k)
        slot = plan.add_borrow_slot(node, buffer, borrow)
        ref.add_slot(_RefSlot(len(ref.slots), node, buffer, 0, *borrow))
        assert slot == len(ref.slots) - 1
        assert plan.borrows[slot] == borrow
    for link in range(3):
        assert plan.borrowers_on_link(link) == ref.borrowers_on_link(link)
    for slot, load in zip(range(len(ref.slots)), loads):
        plan.load[slot] = ref.slots[slot].load = load
    for hosts, covered in queries:
        want = ref.best_for(hosts, covered)
        assert plan.best_for(hosts, covered) == (None if want is None else want.slot_id)
        assert plan.best_anywhere(covered) == ref.best_anywhere(covered).slot_id


def _place_all(ctx, reqs, cfg):
    """Place every group; returns the slot plan plus (group, tree,
    assignments, stats) per group."""
    flat = flatten_requests(reqs)
    groups, aggregate = divide_groups_flat(flat, ctx.comm, cfg)
    plan = SlotPlan.build(ctx, cfg)
    trees = PartitionTree.build_forest(
        RankStream(aggregate), [g.region for g in groups], cfg.msg_ind
    )
    source = LeafTable(trees, flat, ctx.comm)
    placed = []
    for g, tree in zip(groups, trees):
        assts, stats = place_group(g, tree, ctx, cfg, plan, candidates=source)
        placed.append((g, tree, assts, stats))
    return plan, placed


def _coverages(tree, assts):
    return [tree.stream.slice(a.a, a.b) for a in assts]


class TestPlaceGroup:
    def _plan_one(self, ctx, reqs, cfg):
        """(plan, every assignment, last group's stats, any tree — all
        trees share the plan's stream)."""
        plan, placed = _place_all(ctx, reqs, cfg)
        all_assts = [a for _, _, assts, _ in placed for a in assts]
        return plan, all_assts, placed[-1][3], placed[0][1]

    def test_assignments_cover_workload(self):
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(mib(8))
        reqs = serial_requests(8, mib(2))
        plan, assts, _, tree = self._plan_one(ctx, reqs, CFG)
        union = ExtentList.union_all(_coverages(tree, assts))
        assert union == ExtentList.union_all([r.extents for r in reqs])

    def test_aggregator_on_intersecting_host(self):
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(mib(8))
        reqs = serial_requests(8, mib(2))
        plan, assts, _, _ = self._plan_one(ctx, reqs, CFG)
        for a in assts:
            assert plan.node[a.slot_id] in a.candidates.hosts  # locality preserved

    def test_starved_host_triggers_remerge(self):
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(mib(8))
        # Node 1 (ranks 2,3) starved -> its domains must remerge/move.
        ctx.cluster.nodes[1].memory.set_reserved(ctx.machine.node.mem_capacity)
        reqs = serial_requests(8, mib(2))
        plan, assts, stats, tree = self._plan_one(ctx, reqs, CFG)
        assert stats.n_remerges > 0
        for a in assts:
            assert plan.node[a.slot_id] != 1
        # still complete coverage
        union = ExtentList.union_all(_coverages(tree, assts))
        assert union.total == 8 * mib(2)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known defect: after a case-5a remerge whose left sibling leaf "
            "was already assigned, the sibling's bytes stay on its slot's "
            "load and the merged leaf adds them again; fixing it changes "
            "plans, so it waits for a change that re-records the goldens, "
            "pins and benchmark digests"
        ),
    )
    def test_slot_loads_equal_assigned_bytes_after_case_5a_remerge(self):
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(mib(8))
        # Node 1 (ranks 2, 3) starved: the right leaf of a two-leaf
        # subtree remerges into its already-placed left sibling.
        ctx.cluster.nodes[1].memory.set_reserved(ctx.machine.node.mem_capacity)
        plan, assts, stats, _ = self._plan_one(ctx, serial_requests(8, mib(2)), CFG)
        assert stats.n_remerges > 0
        assert sum(plan.load) == sum(a.nbytes for a in assts)

    def test_dynamic_placement_picks_data_affine_rank(self):
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(mib(64))
        reqs = serial_requests(8, mib(2))
        cfg = CFG.replace(msg_ind=mib(64), msg_group=mib(256), group_mode="off")
        plan, [(_, tree, assts, _)] = _place_all(ctx, reqs, cfg)
        domains = build_domains(plan, assts, tree.stream, ctx, cfg)
        (domain,) = domains
        # The aggregator holds data inside the domain...
        assert reqs[domain.aggregator].extents.overlap_bytes(domain.coverage) > 0
        # ...and is, among its host node's ranks, the one with the most
        # bytes in the domain.
        agg_node = ctx.comm.node_of(domain.aggregator)
        best_on_node = max(
            (int(r) for r in ctx.cluster.ranks_on_node(agg_node)),
            key=lambda r: reqs[r].extents.overlap_bytes(domain.coverage),
        )
        assert domain.aggregator == best_on_node


@settings(deadline=None)
@given(
    chunks=st.lists(
        st.tuples(st.integers(0, 1 << 17), st.integers(1, 1 << 12)),
        min_size=2,
        max_size=24,
    ),
    starved=st.sets(st.integers(0, 3), max_size=3),
)
def test_assignments_follow_the_remerged_tree(chunks, starved):
    """Placement keeps its leaf list in step with remerge surgery: the
    assignments come back in the final tree's leaf order, one per leaf."""
    ctx = make_ctx()
    ctx.cluster.set_uniform_available(mib(8))
    for node in starved:
        ctx.cluster.nodes[node].memory.set_reserved(ctx.machine.node.mem_capacity)
    claimed = ExtentList.empty()
    reqs = []
    for rank in range(8):
        el = ExtentList.from_pairs(chunks[rank::8]).subtract(claimed)
        claimed = claimed.union(el)
        reqs.append(AccessRequest(rank, el))
    cfg = CFG.replace(msg_ind=kib(2), msg_group=kib(64), buffer_floor=kib(1))
    _, placed = _place_all(ctx, reqs, cfg)
    for _, tree, assts, stats in placed:
        tree.validate()
        leaves = tree.leaves()
        assert [(a.a, a.b) for a in assts] == [(leaf.a, leaf.b) for leaf in leaves]
        assert _coverages(tree, assts) == [tree.coverage(leaf) for leaf in leaves]
        assert stats.n_domains == len(leaves)


def _entry_sums(candidates):
    """rank -> (node, bytes summed over the rank's entries)."""
    out = {}
    for rank, node, nbytes in zip(
        candidates.ranks.tolist(), candidates.nodes.tolist(), candidates.nbytes.tolist()
    ):
        out[rank] = (node, out.get(rank, (node, 0))[1] + nbytes)
    return out


@settings(deadline=None, max_examples=150)
@given(
    chunks=st.lists(
        st.tuples(st.integers(0, 1 << 15), st.integers(1, 1 << 11)),
        min_size=2,
        max_size=24,
    ),
    picks=st.lists(st.integers(0, 1 << 10), max_size=12),
    placement=st.sampled_from(["block", "cyclic"]),
)
def test_leaf_table_matches_request_intersection(chunks, picks, placement):
    """The leaf table names the candidates that intersecting every
    request names — per-rank bytes, hosts in first-rank order and host
    bytes — for initial leaves and for leaves merged by surgery."""
    # Cyclic placement puts ranks on nodes out of rank order.
    ctx = make_ctx(placement=placement)
    reqs = []
    for rank in range(8):
        # Overlapping requests on purpose: ranks share leaves.
        reqs.append(AccessRequest(rank, ExtentList.from_pairs(chunks[rank::3])))
    flat = flatten_requests(reqs)
    cfg = CFG.replace(msg_ind=kib(1), msg_group=kib(16), buffer_floor=kib(1))
    groups, aggregate = divide_groups_flat(flat, ctx.comm, cfg)
    stream = RankStream(aggregate)
    trees = PartitionTree.build_forest(stream, [g.region for g in groups], cfg.msg_ind)
    table = LeafTable(trees, flat, ctx.comm)
    oracle = RequestCandidateSource(reqs, ctx, stream)
    for tree in trees:
        for pick in picks:
            leaves = tree.leaves()
            if len(leaves) < 2:
                break
            tree.remove_leaf(leaves[pick % len(leaves)])
        for leaf in tree.leaves():
            got, want = table.for_leaf(leaf), oracle.for_leaf(leaf)
            assert got.hosts == want.hosts
            assert got.host_bytes.tolist() == want.host_bytes.tolist()
            assert _entry_sums(got) == _entry_sums(want)


class TestRebalance:
    def test_moves_load_off_overloaded_slot(self):
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(mib(8))
        plan = SlotPlan.build(ctx, CFG)
        # Hand-build assignments: everything on slot 0.
        assts = []
        every_node = [n.node_id for n in ctx.cluster.nodes]
        for i in range(8):
            assts.append(
                Assignment(
                    slot_id=0,
                    a=i * mib(2),
                    b=(i + 1) * mib(2),
                    group_id=0,
                    candidates=leaf_candidates((n, n, 1) for n in every_node),
                )
            )
            plan.load[0] += mib(2)
        before = plan.max_rounds()
        out, moves = rebalance(plan, assts)
        assert moves > 0
        assert plan.max_rounds() < before
        # Bytes conserved.
        assert sum(a.nbytes for a in out) == 8 * mib(2)

    def test_balanced_input_untouched(self):
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(mib(8))
        plan = SlotPlan.build(ctx, CFG)
        assts = []
        for slot, node in enumerate(plan.node):
            assts.append(
                Assignment(
                    slot, slot * mib(4), (slot + 1) * mib(4), 0,
                    leaf_candidates([(0, node, 1)]),
                )
            )
            plan.load[slot] += mib(4)
        _, moves = rebalance(plan, assts)
        assert moves == 0

    def test_empty(self):
        ctx = make_ctx()
        plan = SlotPlan.build(ctx, CFG)
        out, moves = rebalance(plan, [])
        assert out == [] and moves == 0


def _reference_rebalance(plan, assignments, *, max_moves=None):
    """The per-move scan that preceded the array rebalancer."""
    if not assignments:
        return assignments, 0
    if max_moves is None:
        max_moves = 4 * len(assignments)
    by_slot = {}
    for i, a in enumerate(assignments):
        by_slot.setdefault(a.slot_id, []).append(i)
    out = list(assignments)
    moves = 0
    eps = 1e-9

    while moves < max_moves:
        worst = max(plan.slots, key=lambda s: s.projected_rounds())
        worst_rounds = worst.projected_rounds()
        if worst_rounds <= 0:
            break
        indices = sorted(
            by_slot.get(worst.slot_id, ()), key=lambda i: out[i].nbytes
        )
        best_move = None
        for i in indices:
            a = out[i]
            a_bytes = a.nbytes
            local = [
                s
                for node in a.candidates.hosts
                for s in plan.by_node.get(node, ())
            ]
            for pool in (local, plan.slots):
                for target in pool:
                    if target.slot_id == a.slot_id:
                        continue
                    new_max = max(
                        (worst.load - a_bytes) / worst.buffer_bytes,
                        target.projected_rounds(a_bytes),
                    )
                    if new_max < worst_rounds - eps and (
                        best_move is None or new_max < best_move[0] - eps
                    ):
                        best_move = (new_max, i, target)
                if best_move is not None:
                    break
            if best_move is not None:
                break
        if best_move is None:
            break
        _, i, target = best_move
        a = out[i]
        plan.slots[a.slot_id].load -= a.nbytes
        target.load += a.nbytes
        by_slot[a.slot_id].remove(i)
        by_slot.setdefault(target.slot_id, []).append(i)
        out[i] = replace(a, slot_id=target.slot_id)
        moves += 1
    return out, moves


_GIB = 10**9
#: Small buffers tie projected rounds exactly; the ~1e9 ones put
#: candidate values within ``eps`` (1e-9) of each other.
_buffers = st.sampled_from([1, 2, 3, 4, 6, _GIB - 1, _GIB, _GIB + 1, 2 * _GIB, 2 * _GIB + 1])
_sizes = st.one_of(
    st.integers(1, 8), st.integers(_GIB - 3, _GIB + 3), st.integers(1, 3 * _GIB)
)


@st.composite
def _slot_plans(draw):
    """Slots on a few nodes (some nodes slotless) and assignments on them.

    The first slots are each node's initial range, node by node; the
    rest are appended in any node order, as borrow-backed slots are.
    """
    n_nodes = draw(st.integers(1, 4))
    slots = [
        (draw(st.integers(0, n_nodes - 1)), draw(_buffers), draw(st.sampled_from([0, 0, 1, _GIB])))
        for _ in range(draw(st.integers(1, 10)))
    ]
    n_initial = draw(st.integers(1, len(slots)))
    slots[:n_initial] = sorted(slots[:n_initial], key=lambda slot: slot[0])
    assignments = []
    for _ in range(draw(st.integers(1, 12))):
        hosts = draw(st.lists(st.integers(0, n_nodes + 1), max_size=3, unique=True))
        assignments.append(
            (draw(st.integers(0, len(slots) - 1)), draw(_sizes), tuple(hosts))
        )
    max_moves = draw(st.one_of(st.none(), st.integers(0, 4)))
    return (n_nodes, n_initial, slots), assignments, max_moves


def _build(slot_case, assignments):
    n_nodes, n_initial, slots = slot_case
    counts = [0] * (n_nodes + 2)  # hosts may name slotless nodes up to n_nodes + 1
    for node, _, _ in slots[:n_initial]:
        counts[node] += 1
    plan = SlotPlan(counts, [buffer for _, buffer, _ in slots[:n_initial]])
    for node, buffer, _ in slots[n_initial:]:
        plan.add_borrow_slot(node, buffer, (1, 0, 0.0, 0.0))
    plan.load[:] = [extra for _, _, extra in slots]
    ref = _RefSlotPlan(
        [_RefSlot(i, node, buffer, load=extra) for i, (node, buffer, extra) in enumerate(slots)]
    )
    return plan, ref, _assignments(assignments, plan.load, ref)


def _assignments(assignments, load, ref):
    out = []
    for k, (slot_id, nbytes, hosts) in enumerate(assignments):
        out.append(
            Assignment(
                slot_id,
                k * 4 * _GIB,
                k * 4 * _GIB + nbytes,
                0,
                leaf_candidates((k, n, 1) for k, n in enumerate(hosts)),
            )
        )
        load[slot_id] += nbytes
        ref.slots[slot_id].load += nbytes
    return out


#: Two targets whose ``new_max`` differ by less than ``eps`` (1.0 and
#: 0.9999999995): the scan keeps the first, on a local host and remotely.
_EPS_TIE = (2, 3, [(0, _GIB, 0), (1, 2 * _GIB, 0), (1, 2 * _GIB + 1, 0)])


@settings(max_examples=300, deadline=None)
@given(case=_slot_plans())
@example(case=(_EPS_TIE, [(0, 2 * _GIB, (1,))], None))
@example(case=(_EPS_TIE, [(0, 2 * _GIB, ())], None))
def test_rebalance_matches_the_per_move_scan(case):
    slots, assignments, max_moves = case
    plan, ref_plan, assts = _build(slots, assignments)
    out, moves = rebalance(plan, assts, max_moves=max_moves)
    ref_out, ref_moves = _reference_rebalance(ref_plan, list(assts), max_moves=max_moves)
    assert moves == ref_moves
    assert [a.slot_id for a in out] == [a.slot_id for a in ref_out]
    assert plan.load == [s.load for s in ref_plan.slots]


class TestBuildDomains:
    def test_merges_per_slot_across_groups(self):
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(mib(8))
        plan = SlotPlan.build(ctx, CFG)
        # Stream ranks [0, 100) are bytes [0, 100), [100, 200) are
        # [200, 300).
        stream = RankStream(ExtentList.from_pairs([(0, 100), (200, 100)]))
        a1 = Assignment(0, 0, 100, 0, leaf_candidates([(0, 0, 100)]))
        a2 = Assignment(0, 100, 200, 1, leaf_candidates([(0, 0, 100)]))
        plan.load[0] += 200
        domains = build_domains(plan, [a1, a2], stream, ctx, CFG)
        assert len(domains) == 1
        assert domains[0].group_id == -1  # multi-group slot
        assert domains[0].coverage.to_pairs() == [(0, 100), (200, 100)]

    def test_buffer_capped_by_slot_and_coverage(self):
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(mib(8))
        plan = SlotPlan.build(ctx, CFG)
        a = Assignment(0, 0, 10, 0, leaf_candidates([(0, 0, 10)]))
        domains = build_domains(plan, [a], RankStream(ExtentList.single(0, 10)), ctx, CFG)
        assert domains[0].buffer_bytes == 10  # capped by tiny coverage
