"""Tests for aggregation group division (paper Section 3.1, Figure 4)."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, NetworkModel, scaled_testbed
from repro.core import LeafTable, MemoryConsciousConfig, PartitionTree, RankStream
from repro.core.columnar import _node_infos_flat, divide_groups_flat
from repro.core.group_division import _infos_serial
from repro.mpi import AccessRequest, SimComm, flatten_requests
from repro.util import ExtentList
from repro.workloads import IORWorkload


def make_comm(n_procs=9, procs_per_node=3, n_nodes=3):
    machine = scaled_testbed(n_nodes, cores_per_node=procs_per_node)
    cluster = Cluster(machine, n_procs, procs_per_node=procs_per_node)
    return SimComm(cluster, NetworkModel(machine))


def _divide(reqs, comm, config):
    return divide_groups_flat(flatten_requests(reqs), comm, config)[0]


def divide_with_members(reqs, comm, config):
    """The planner's groups plus each one's member ranks, read from the
    plan's leaf table: the distinct ranks among the entries of the
    group's leaves. The table's member counts (the plan's group sizes)
    must agree with them."""
    flat = flatten_requests(reqs)
    groups, aggregate = divide_groups_flat(flat, comm, config)
    if not groups:
        return groups, []
    trees = PartitionTree.build_forest(
        RankStream(aggregate), [g.region for g in groups], config.msg_ind
    )
    table = LeafTable(trees, flat, comm)
    members = [
        tuple(sorted({
            rank for leaf in tree.leaves() for rank in table.for_leaf(leaf).ranks.tolist()
        }))
        for tree in trees
    ]
    assert table.group_sizes == [len(m) for m in members]
    return groups, members


def _is_serial(reqs, comm, *, overlap_threshold):
    flat = flatten_requests(reqs)
    infos = _node_infos_flat(flat, comm.nodes_of(flat.ranks))
    return _infos_serial(infos, overlap_threshold)


def serial_requests(n_procs, nbytes):
    return [
        AccessRequest(p, ExtentList.single(p * nbytes, nbytes))
        for p in range(n_procs)
    ]


class TestDetectSerial:
    def test_serial_distribution_detected(self):
        comm = make_comm()
        reqs = serial_requests(9, 100)
        assert _is_serial(reqs, comm, overlap_threshold=0.25)

    def test_interleaved_detected(self):
        comm = make_comm()
        wl = IORWorkload(9, block_size=1600, transfer_size=100)
        reqs = wl.requests()
        assert not _is_serial(reqs, comm, overlap_threshold=0.25)

    def test_single_node_trivially_serial(self):
        comm = make_comm(n_procs=3, procs_per_node=3, n_nodes=1)
        wl = IORWorkload(3, block_size=400, transfer_size=100)
        assert _is_serial(wl.requests(), comm, overlap_threshold=0.25)


class TestFigure4Example:
    def test_paper_figure4_node_aligned_cut(self):
        """Figure 4: 9 processes on 3 nodes, serial distribution; the
        first group's boundary extends to the ending offset of the data
        accessed by the last process of node 1 — no node straddles two
        groups."""
        comm = make_comm(9, 3, 3)
        per_proc = 100
        reqs = serial_requests(9, per_proc)
        config = MemoryConsciousConfig(
            msg_group=250,  # less than one node's 300 B -> snap to node end
            group_mode="serial",
            msg_ind=100,
            mem_min=1,
            buffer_floor=1,
        )
        groups, members = divide_with_members(reqs, comm, config)
        # Each node's 3 processes hold 300 B; groups close at node ends.
        assert [g.region.offset for g in groups] == [0, 300, 600]
        assert [g.region.end for g in groups] == [300, 600, 900]
        # Members: exactly one node's ranks per group.
        assert members[0] == (0, 1, 2)
        assert members[1] == (3, 4, 5)
        assert members[2] == (6, 7, 8)


class TestGroupInvariants:
    @pytest.mark.parametrize("mode", ["serial", "interleaved", "off", "auto"])
    def test_groups_partition_workload(self, mode):
        comm = make_comm()
        wl = IORWorkload(9, block_size=3200, transfer_size=100)
        reqs = wl.requests()
        config = MemoryConsciousConfig(
            msg_group=4000, group_mode=mode, msg_ind=512, mem_min=1, buffer_floor=1
        )
        groups = _divide(reqs, comm, config)
        total = ExtentList.union_all([r.extents for r in reqs])
        union = ExtentList.union_all([g.coverage for g in groups])
        assert union == total
        assert sum(g.covered_bytes for g in groups) == total.total  # disjoint
        # Regions ordered and non-overlapping.
        for a, b in zip(groups, groups[1:]):
            assert a.region.end <= b.region.offset

    def test_off_mode_single_group(self):
        comm = make_comm()
        reqs = serial_requests(9, 100)
        config = MemoryConsciousConfig(
            msg_group=10, group_mode="off", msg_ind=64, mem_min=1, buffer_floor=1
        )
        groups, members = divide_with_members(reqs, comm, config)
        assert len(groups) == 1
        assert members[0] == tuple(range(9))

    def test_interleaved_quantile_cuts(self):
        comm = make_comm()
        wl = IORWorkload(9, block_size=3200, transfer_size=100)
        config = MemoryConsciousConfig(
            msg_group=9600, group_mode="interleaved", msg_ind=1024,
            mem_min=1, buffer_floor=1,
        )
        groups = _divide(wl.requests(), comm, config)
        assert len(groups) == 3  # 28800 bytes / 9600
        sizes = [g.covered_bytes for g in groups]
        assert all(s == 9600 for s in sizes)

    def test_interleaved_remainder_splits_half_up(self):
        """Regression: flooring ``total // msg_group`` used to fold the
        remainder into the last group — a 1.5×Msg_group workload came
        back as ONE group 1.5× over target. Half-up rounding cuts it
        into two ~0.75× groups instead."""
        comm = make_comm()
        wl = IORWorkload(9, block_size=1600, transfer_size=100)  # 14400 B
        config = MemoryConsciousConfig(
            msg_group=9600, group_mode="interleaved", msg_ind=1024,
            mem_min=1, buffer_floor=1,
        )
        groups = _divide(wl.requests(), comm, config)
        assert len(groups) == 2
        sizes = [g.covered_bytes for g in groups]
        assert sizes == [7200, 7200]
        assert all(s <= config.msg_group for s in sizes)

    def test_serial_boundary_extends_over_straddling_node(self):
        """Regression: with overlapping node envelopes, the serial cut
        used to land at the max end of the *processed* nodes even when a
        later node started before that cut — splitting the later node's
        data across two groups. The boundary must extend over every
        in-flight node."""
        comm = make_comm(n_procs=3, procs_per_node=1, n_nodes=3)
        reqs = [
            AccessRequest(0, ExtentList.single(0, 300)),
            AccessRequest(1, ExtentList.single(250, 300)),  # straddles 300
            AccessRequest(2, ExtentList.single(600, 300)),
        ]
        config = MemoryConsciousConfig(
            msg_group=100,  # tiny: wants to cut after the first node
            group_mode="serial",
            msg_ind=100,
            mem_min=1,
            buffer_floor=1,
        )
        groups, members = divide_with_members(reqs, comm, config)
        # No node's data may cross a group boundary.
        for req in reqs:
            holders = [
                g for g in groups
                if req.extents.clip(g.region.offset, g.region.length).total > 0
            ]
            assert len(holders) == 1, f"rank {req.rank} split across groups"
        assert [g.region.end for g in groups] == [550, 900]
        assert members[0] == (0, 1)
        assert members[1] == (2,)

    def test_empty_requests(self):
        comm = make_comm()
        config = MemoryConsciousConfig(mem_min=1, buffer_floor=1)
        assert _divide([AccessRequest(0, ExtentList.empty())], comm, config) == []

    def test_members_only_ranks_with_data_in_region(self):
        comm = make_comm()
        reqs = serial_requests(9, 100)
        config = MemoryConsciousConfig(
            msg_group=450, group_mode="serial", msg_ind=100, mem_min=1, buffer_floor=1
        )
        groups, members = divide_with_members(reqs, comm, config)
        for g, ranks in zip(groups, members):
            for rank in ranks:
                assert reqs[rank].extents.clip(
                    g.region.offset, g.region.length
                ).total > 0
