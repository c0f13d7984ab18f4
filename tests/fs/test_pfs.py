"""Tests for the parallel file system model."""

from __future__ import annotations

import pytest

from repro.cluster import BISECTION, membw, nic_in, nic_out, testbed_640
from repro.fs import PFS_BACKPLANE, ParallelFileSystem, ost_key
from repro.util import ExtentList, FileSystemError, mib


@pytest.fixture
def storage():
    return testbed_640().storage


@pytest.fixture
def pfs(storage):
    return ParallelFileSystem(storage, track_data=True)


class TestFiles:
    def test_open_is_idempotent(self, pfs):
        f1 = pfs.open("a")
        f2 = pfs.open("a")
        assert f1 is f2
        assert pfs.exists("a")

    def test_delete(self, pfs):
        pfs.open("a")
        pfs.delete("a")
        assert not pfs.exists("a")

    def test_write_grows_logical_size(self, pfs):
        f = pfs.open("a")
        f.apply_write(ExtentList.single(100, 50), bytes(50))
        assert f.size == 150

    def test_tracked_write_requires_payload(self, pfs):
        f = pfs.open("a")
        with pytest.raises(FileSystemError):
            f.apply_write(ExtentList.single(0, 10), None)

    def test_untracked_file_ignores_data(self, storage):
        pfs = ParallelFileSystem(storage, track_data=False)
        f = pfs.open("a")
        f.apply_write(ExtentList.single(0, 10), None)
        assert f.size == 10
        assert f.apply_read(ExtentList.single(0, 10)) is None

    def test_roundtrip(self, pfs):
        f = pfs.open("a")
        el = ExtentList.from_pairs([(0, 4), (10, 4)])
        f.apply_write(el, b"abcdwxyz")
        assert bytes(f.apply_read(el)) == b"abcdwxyz"


class TestCapacities:
    def test_capacity_map_contains_osts_and_backplane(self, pfs, storage):
        caps = pfs.capacity_map("write")
        assert caps[PFS_BACKPLANE] == storage.backplane
        for i in range(storage.n_osts):
            assert caps[ost_key(i)] == storage.ost_bandwidth

    def test_reads_faster_than_writes(self, pfs, storage):
        w = pfs.capacity_map("write")
        r = pfs.capacity_map("read")
        assert r[ost_key(0)] == storage.ost_bandwidth * storage.read_factor
        assert r[PFS_BACKPLANE] > w[PFS_BACKPLANE]

    def test_stream_capacity(self, pfs, storage):
        assert pfs.stream_capacity("write") == storage.client_stream_bandwidth
        assert pfs.stream_capacity("read") > pfs.stream_capacity("write")


class TestAccessFlows:
    def test_empty_extents_no_flows(self, pfs):
        assert pfs.access_flow_list(0, ExtentList.empty(), "write") == []

    def test_write_flow_path(self, pfs):
        flows = pfs.access_flow_list(3, ExtentList.single(0, mib(1)), "write")
        assert len(flows) == 1
        res = flows[0].resources
        assert membw(3) in res
        assert nic_out(3) in res
        assert BISECTION in res
        assert ost_key(0) in res
        assert PFS_BACKPLANE in res

    def test_read_flow_uses_nic_in(self, pfs):
        flows = pfs.access_flow_list(3, ExtentList.single(0, mib(1)), "read")
        assert nic_in(3) in flows[0].resources
        assert nic_out(3) not in flows[0].resources

    def test_flow_sizes_match_bytes_per_ost(self, pfs, storage):
        extents = ExtentList.single(0, 3 * storage.stripe_unit)
        flows = pfs.access_flow_list(0, extents, "write")
        assert len(flows) == 3
        assert sum(f.size for f in flows) == extents.total

    def test_ost_charge_includes_request_overhead(self, pfs, storage):
        extents = ExtentList.single(0, storage.stripe_unit)
        (flow,) = pfs.access_flow_list(0, extents, "write")
        charged = flow.charge_on(ost_key(0))
        expected_overhead = storage.request_overhead * storage.ost_bandwidth
        assert charged == pytest.approx(extents.total + expected_overhead)

    def test_stream_resource_attached(self, pfs):
        (flow,) = pfs.access_flow_list(
            0, ExtentList.single(0, 100), "write", stream="agg7"
        )
        assert pfs.stream_key("agg7") in flow.resources


class TestAccounting:
    def test_account_access(self, pfs, storage):
        extents = ExtentList.single(0, 2 * storage.stripe_unit)
        pfs.account_access(extents, "write")
        util = pfs.ost_utilization()
        assert util[0] == storage.stripe_unit
        assert util[1] == storage.stripe_unit
        assert pfs.total_requests() == 2
