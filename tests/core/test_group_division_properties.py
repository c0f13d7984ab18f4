"""Property suite over aggregation-group division (Section 3.1).

For arbitrary workload shapes, group division must always hold:

* group coverages are disjoint and their union is exactly the
  workload's aggregate byte set;
* per-group covered bytes sum to the workload total;
* every member rank actually owns bytes inside its group's region;
* serial division never splits one node's envelope across two groups;
* the planner's division (``divide_groups_flat``) produces the same
  groups as the per-request reference in ``_object_planner`` — and the
  full plan matches the reference plan bit for bit;
* the planner's node envelope columns, serial test and serial cuts
  equal the reference's per-node objects, offsets near 2**62 included.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, NetworkModel, scaled_testbed
from repro.core import MemoryConsciousCollectiveIO, MemoryConsciousConfig
from repro.core.columnar import _node_infos_flat, divide_groups_flat
from repro.core.group_division import _infos_serial, _serial_boundaries_from
from repro.core.plans import plan_to_dict
from repro.io import CollectiveHints, make_context
from repro.mpi import AccessRequest, SimComm, flatten_requests
from repro.util import ExtentList, kib

from . import _object_planner as reference
from .test_group_division import divide_with_members

pytestmark = pytest.mark.slow

N_RANKS = 8

chunk_lists = st.lists(
    st.tuples(st.integers(0, 1 << 17), st.integers(1, 1 << 11)),
    min_size=2,
    max_size=24,
)
modes = st.sampled_from(["serial", "interleaved", "off", "auto"])
msg_groups = st.sampled_from([kib(8), kib(64), kib(256)])


def _comm():
    machine = scaled_testbed(4, cores_per_node=2)
    cluster = Cluster(machine, N_RANKS, procs_per_node=2)
    return SimComm(cluster, NetworkModel(machine))


def _requests(chunks):
    claimed = ExtentList.empty()
    reqs = []
    for rank in range(N_RANKS):
        el = ExtentList.from_pairs(chunks[rank::N_RANKS]).subtract(claimed)
        claimed = claimed.union(el)
        reqs.append(AccessRequest(rank, el))
    return reqs, claimed


def _divide(reqs, comm, config):
    return divide_groups_flat(flatten_requests(reqs), comm, config)[0]


def _config(mode, msg_group):
    return MemoryConsciousConfig(
        msg_ind=kib(8), msg_group=msg_group, group_mode=mode,
        mem_min=1, buffer_floor=1,
    )


@given(chunks=chunk_lists, mode=modes, msg_group=msg_groups)
def test_groups_tile_aggregate_coverage(chunks, mode, msg_group):
    reqs, claimed = _requests(chunks)
    groups = _divide(reqs, _comm(), _config(mode, msg_group))
    union = ExtentList.union_all([g.coverage for g in groups])
    assert union == claimed
    # disjoint: summed bytes equal union bytes equal workload total
    assert sum(g.covered_bytes for g in groups) == claimed.total
    for a, b in zip(groups, groups[1:]):
        assert a.region.end <= b.region.offset


@given(chunks=chunk_lists, mode=modes, msg_group=msg_groups)
def test_members_own_bytes_in_region(chunks, mode, msg_group):
    reqs, _ = _requests(chunks)
    groups, members = divide_with_members(reqs, _comm(), _config(mode, msg_group))
    for g, ranks in zip(groups, members):
        assert ranks == tuple(sorted(set(ranks)))
        for rank in ranks:
            clipped = reqs[rank].extents.clip(
                g.region.offset, g.region.length
            )
            assert clipped.total > 0, f"zero-byte member {rank}"


@given(chunks=chunk_lists, msg_group=msg_groups)
def test_serial_never_splits_a_node(chunks, msg_group):
    reqs, _ = _requests(chunks)
    comm = _comm()
    groups = _divide(reqs, comm, _config("serial", msg_group))
    # Merge each node's requests into one envelope; it must fall inside
    # exactly one group's region.
    by_node: dict[int, ExtentList] = {}
    for r in reqs:
        if r.extents.is_empty:
            continue
        node = comm.node_of(r.rank)
        by_node[node] = by_node.get(node, ExtentList.empty()).union(r.extents)
    for node, extents in by_node.items():
        env = extents.envelope()
        holders = [
            g for g in groups
            if g.region.offset < env.end and env.offset < g.region.end
        ]
        assert len(holders) == 1, f"node {node} straddles groups"


@given(chunks=chunk_lists, mode=modes, msg_group=msg_groups)
def test_columnar_division_matches_object(chunks, mode, msg_group):
    reqs, _ = _requests(chunks)
    comm = _comm()
    config = _config(mode, msg_group)
    obj = reference.divide_groups(reqs, comm, config)
    col, aggregate = divide_groups_flat(flatten_requests(reqs), comm, config)
    _, members = divide_with_members(reqs, comm, config)
    assert [
        (g.group_id, g.region, g.coverage, g.member_ranks) for g in obj
    ] == [
        (g.group_id, g.region, g.coverage, m) for g, m in zip(col, members)
    ]
    assert aggregate == ExtentList.union_all([r.extents for r in reqs])


@given(chunks=chunk_lists, mode=modes)
def test_columnar_plan_matches_object_plan(chunks, mode):
    reqs, _ = _requests(chunks)
    config = MemoryConsciousConfig(
        msg_ind=kib(8), msg_group=kib(64), group_mode=mode,
        mem_min=kib(8), buffer_floor=kib(8),
    )

    def build(engine):
        machine = scaled_testbed(4, cores_per_node=2)
        ctx = make_context(
            machine, N_RANKS, procs_per_node=2, seed=11,
            hints=CollectiveHints(cb_buffer_size=config.msg_ind),
        )
        ctx.cluster.apply_memory_variance(
            ctx.rng, mean_available=kib(64), std=kib(32)
        )
        if engine == "object":
            return plan_to_dict(reference.plan_requests(ctx, reqs, config))
        strategy = MemoryConsciousCollectiveIO(config)
        return plan_to_dict(strategy.plan(ctx, flatten_requests(reqs)))

    assert build("object") == build("columnar")


_HUGE = 1 << 62
#: Offsets anywhere up to 2**62, so node spans sum past int64.
huge_chunks = st.tuples(st.integers(0, _HUGE), st.integers(1, 1 << 40))
#: A few whole requests (empty ones too), so several nodes share an
#: envelope's exact (start, end) and only first appearance orders them;
#: under cyclic placement a node's first rank may come after another's.
tied_requests = st.sampled_from([
    [],
    [(0, 1 << 20)],
    [(0, 1), ((1 << 20) - 1, 1)],
    [(1 << 20, 1)],
    [(1 << 61, 1 << 20)],
    [(_HUGE, 1)],
])


@settings(max_examples=300)
@given(
    per_rank=st.lists(
        st.one_of(st.lists(huge_chunks, max_size=3), tied_requests),
        min_size=N_RANKS,
        max_size=N_RANKS,
    ),
    placement=st.sampled_from(["block", "cyclic"]),
    threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    msg_group=st.sampled_from([1, kib(64), 1 << 40, 1 << 61, 1 << 62]),
)
# Cyclic: ranks 1 and 4 sit on nodes 1 and 0 with one envelope, and
# node 1 appears first.
@example(
    per_rank=[[], [(0, 1 << 20)], [], [], [(0, 1 << 20)], [], [], []],
    placement="cyclic", threshold=0.25, msg_group=1,
)
def test_envelope_columns_match_node_objects(per_rank, placement, threshold, msg_group):
    """The envelope columns, the serial test and the Figure 4 cuts equal
    the oracle's per-node objects, for offsets near 2**62 and for
    envelopes tied on (start, end)."""
    machine = scaled_testbed(4, cores_per_node=2)
    cluster = Cluster(machine, N_RANKS, procs_per_node=2, placement=placement)
    comm = SimComm(cluster, NetworkModel(machine))
    reqs = [
        AccessRequest(rank, ExtentList.from_pairs(chunks))
        for rank, chunks in enumerate(per_rank)
    ]
    flat = flatten_requests(reqs)
    envelopes = _node_infos_flat(flat, comm.nodes_of(flat.ranks))
    infos = reference._node_accesses(reqs, comm)
    assert [column.tolist() for column in envelopes] == [
        [n.node_id for n in infos],
        [n.start for n in infos],
        [n.end for n in infos],
        [n.nbytes for n in infos],
    ]
    assert _infos_serial(envelopes, threshold) == reference.infos_serial(infos, threshold)
    if infos:
        env = flat.aggregate().envelope()
        config = MemoryConsciousConfig(
            msg_group=msg_group, msg_ind=kib(8), mem_min=1, buffer_floor=1
        )
        assert _serial_boundaries_from(
            envelopes, config, env
        ) == reference.serial_boundaries_from(infos, config, env)
