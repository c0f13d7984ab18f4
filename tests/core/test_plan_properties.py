"""Property suite over the planner's structural invariants.

For arbitrary workload shapes the partition machinery must always hold:

* partition-tree leaves are disjoint and exactly tile the group's file
  region, and their coverages partition the group's bytes;
* every leaf respects ``Msg_ind`` — until remerging deliberately grows
  one past it;
* remerging preserves both the tiling and the byte partition;
* planned domains land on hosts meeting ``Mem_min`` whenever any such
  host exists, and planning never mutates cluster memory.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.cluster import scaled_testbed
from repro.core import (
    MemoryConsciousCollectiveIO,
    MemoryConsciousConfig,
    PartitionTree,
)
from repro.io import CollectiveHints, make_context
from repro.mpi import AccessRequest, flatten_requests
from repro.util import ExtentList, kib, mib

pytestmark = pytest.mark.slow

CFG = MemoryConsciousConfig(
    msg_ind=kib(128), msg_group=kib(512), nah=2, mem_min=kib(32),
    buffer_floor=kib(8),
)

chunk_lists = st.lists(
    st.tuples(st.integers(0, 1 << 17), st.integers(1, 1 << 11)),
    min_size=2,
    max_size=24,
)


def _ctx(seed, mem_kib):
    machine = scaled_testbed(4, cores_per_node=4)
    ctx = make_context(
        machine, 8, procs_per_node=2, seed=seed,
        hints=CollectiveHints(cb_buffer_size=kib(64)),
    )
    ctx.cluster.apply_memory_variance(
        ctx.rng, mean_available=kib(mem_kib), std=mib(1)
    )
    return ctx


def _requests(chunks):
    claimed = ExtentList.empty()
    reqs = []
    for rank in range(8):
        el = ExtentList.from_pairs(chunks[rank::8]).subtract(claimed)
        claimed = claimed.union(el)
        reqs.append(AccessRequest(rank, el))
    return reqs, claimed


def _assert_leaves_partition(tree, coverage):
    tree.validate()
    leaves = tree.leaves()
    # regions tile the root exactly: no gaps, no overlap
    assert leaves[0].lo == tree.root.lo
    assert leaves[-1].hi == tree.root.hi
    for prev, nxt in zip(leaves, leaves[1:]):
        assert prev.hi == nxt.lo
    # coverages partition the input bytes: disjoint union == original
    assert sum(leaf.covered_bytes for leaf in leaves) == coverage.total
    union = ExtentList.union_all([tree.coverage(leaf) for leaf in leaves])
    assert union.to_pairs() == coverage.to_pairs()


@given(chunks=chunk_lists, msg_ind_kib=st.integers(1, 64))
def test_tree_leaves_tile_and_respect_msg_ind(chunks, msg_ind_kib):
    coverage = ExtentList.from_pairs(chunks)
    msg_ind = kib(msg_ind_kib)
    tree = PartitionTree.build_indexed(coverage, msg_ind)
    _assert_leaves_partition(tree, coverage)
    assert all(leaf.covered_bytes <= msg_ind for leaf in tree.leaves())


@given(
    chunks=st.lists(
        st.tuples(st.integers(0, 1 << 17), st.integers(1, 1 << 11)),
        min_size=6,
        max_size=24,
    ),
    msg_ind_kib=st.integers(1, 4),  # small enough that trees have leaves to shed
    picks=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=8),
)
def test_remerge_preserves_the_partition(chunks, msg_ind_kib, picks):
    coverage = ExtentList.from_pairs(chunks)
    tree = PartitionTree.build_indexed(coverage, kib(msg_ind_kib))
    if tree.n_leaves < 2:
        return
    # remove a sequence of leaves; after each surgery the tiling and the
    # byte partition must survive (Msg_ind is deliberately given up)
    for pick in picks:
        leaves = tree.leaves()
        if len(leaves) < 2:
            break
        tree.remove_leaf(leaves[pick % len(leaves)])
        _assert_leaves_partition(tree, coverage)


@given(
    chunks=chunk_lists,
    seed=st.integers(0, 1 << 16),
    mem_kib=st.integers(16, 1024),
)
def test_planned_domains_partition_and_respect_memory(chunks, seed, mem_kib):
    ctx = _ctx(seed, mem_kib)
    reqs, claimed = _requests(chunks)
    assume(not claimed.is_empty)
    domains, stats, group_sizes = MemoryConsciousCollectiveIO(CFG).plan(
        ctx, flatten_requests(reqs)
    ).as_tuple()

    # 1. Domains partition the workload: disjoint, nothing lost.
    assert sum(d.coverage.total for d in domains) == claimed.total
    union = ExtentList.union_all([d.coverage for d in domains])
    assert union.to_pairs() == claimed.to_pairs()

    # 2. Coverage stays inside each domain's declared region, and the
    #    regions of a group tile without gap or overlap.
    by_group: dict[int, list] = {}
    for d in domains:
        by_group.setdefault(d.group_id, []).append(d)
        if not d.coverage.is_empty:
            env = d.coverage.envelope()
            assert env.offset >= d.region.offset and env.end <= d.region.end
    for members in by_group.values():
        members.sort(key=lambda d: d.region.offset)
        for a, b in zip(members, members[1:]):
            assert a.region.end == b.region.offset

    # 3. Msg_ind is respected unless the planner remerged a domain.
    if stats.n_remerges == 0:
        assert all(d.coverage.total <= CFG.msg_ind for d in domains)

    # 4. When any host offers Mem_min, every aggregator (remerged
    #    domains included) sits on one that does; buffers are real.
    starved = all(
        n.memory.available < CFG.mem_min for n in ctx.cluster.nodes
    )
    for d in domains:
        node = ctx.cluster.nodes[ctx.comm.node_of(d.aggregator)]
        if not starved:
            assert node.memory.available >= CFG.mem_min
        assert d.buffer_bytes >= min(CFG.mem_min, d.coverage.total)

    # 5. Planning only reads the cluster — it never allocates.
    assert all(n.memory.in_use == 0 for n in ctx.cluster.nodes)
