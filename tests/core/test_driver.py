"""Tests for the MC-CIO driver (plan + end-to-end correctness)."""

from __future__ import annotations

import numpy as np

from repro.core import MemoryConsciousCollectiveIO, MemoryConsciousConfig
from repro.io import make_context
from repro.cluster import scaled_testbed
from repro.mpi import AccessRequest, flatten_requests, pattern_bytes
from repro.util import ExtentList, mib
from repro.workloads import IORWorkload


CFG = MemoryConsciousConfig(
    msg_ind=mib(1), msg_group=mib(8), nah=2, mem_min=mib(1) // 4,
    buffer_floor=mib(1) // 16,
)


def make_ctx(track=True):
    machine = scaled_testbed(4, cores_per_node=4)
    ctx = make_context(machine, 8, procs_per_node=2, track_data=track, seed=11)
    ctx.cluster.set_uniform_available(mib(2))
    return ctx


def serial_requests(n_procs, nbytes, with_data=True):
    out = []
    for p in range(n_procs):
        el = ExtentList.single(p * nbytes, nbytes)
        out.append(
            AccessRequest(p, el, pattern_bytes(el) if with_data else None)
        )
    return out


class TestPlan:
    def test_domains_cover_workload_once(self):
        ctx = make_ctx()
        reqs = serial_requests(8, mib(2), with_data=False)
        domains, stats, groups = MemoryConsciousCollectiveIO(CFG).plan(
            ctx, flatten_requests(reqs)
        ).as_tuple()
        union = ExtentList.union_all([d.coverage for d in domains])
        assert union == ExtentList.union_all([r.extents for r in reqs])
        assert sum(d.covered_bytes for d in domains) == union.total

    def test_buffers_respect_node_memory(self):
        ctx = make_ctx()
        reqs = serial_requests(8, mib(2), with_data=False)
        domains, _, _ = MemoryConsciousCollectiveIO(CFG).plan(
            ctx, flatten_requests(reqs)
        ).as_tuple()
        per_node: dict[int, int] = {}
        for d in domains:
            node = ctx.comm.node_of(d.aggregator)
            per_node[node] = per_node.get(node, 0) + d.buffer_bytes
        for node_id, used in per_node.items():
            assert used <= ctx.cluster.nodes[node_id].available_memory

    def test_nah_respected(self):
        ctx = make_ctx()
        reqs = serial_requests(8, mib(2), with_data=False)
        domains, _, _ = MemoryConsciousCollectiveIO(CFG).plan(
            ctx, flatten_requests(reqs)
        ).as_tuple()
        per_node: dict[int, int] = {}
        for d in domains:
            node = ctx.comm.node_of(d.aggregator)
            per_node[node] = per_node.get(node, 0) + 1
        assert all(count <= CFG.nah for count in per_node.values())


class TestEndToEnd:
    def test_write_is_byte_accurate(self):
        ctx = make_ctx()
        reqs = serial_requests(8, mib(1))
        f = ctx.pfs.open("out")
        res = MemoryConsciousCollectiveIO(CFG).write(ctx, f, reqs)
        full = ExtentList.union_all([r.extents for r in reqs])
        assert np.array_equal(f.apply_read(full), pattern_bytes(full))
        assert res.elapsed > 0
        assert res.nbytes == 8 * mib(1)

    def test_read_roundtrip(self):
        ctx = make_ctx()
        write_reqs = serial_requests(8, mib(1))
        f = ctx.pfs.open("out")
        MemoryConsciousCollectiveIO(CFG).write(ctx, f, write_reqs)
        read_reqs = serial_requests(8, mib(1), with_data=False)
        MemoryConsciousCollectiveIO(CFG).read(ctx, f, read_reqs)
        for wr, rd in zip(write_reqs, read_reqs):
            assert np.array_equal(rd.data, wr.data)

    def test_interleaved_write_verified(self):
        ctx = make_ctx()
        wl = IORWorkload(8, block_size=mib(1), transfer_size=mib(1) // 8)
        reqs = wl.requests(with_data=True)
        f = ctx.pfs.open("ior")
        MemoryConsciousCollectiveIO(CFG).write(ctx, f, reqs)
        full = ExtentList.union_all([r.extents for r in reqs])
        assert np.array_equal(f.apply_read(full), pattern_bytes(full))

    def test_extras_reported(self):
        ctx = make_ctx()
        reqs = serial_requests(8, mib(1))
        res = MemoryConsciousCollectiveIO(CFG).write(ctx, ctx.pfs.open("x"), reqs)
        assert "n_groups" in res.extras
        assert "n_remerges" in res.extras
        assert res.extras["n_groups"] >= 1

    def test_memory_released_after_run(self):
        ctx = make_ctx()
        reqs = serial_requests(8, mib(1))
        MemoryConsciousCollectiveIO(CFG).write(ctx, ctx.pfs.open("x"), reqs)
        for node in ctx.cluster.nodes:
            assert node.memory.in_use == 0

    def test_ablation_static_placement_changes_aggregators(self):
        ctx1 = make_ctx()
        ctx2 = make_ctx()
        # Skew the data so rank affinity matters.
        reqs = serial_requests(8, mib(1), with_data=False)
        dyn, _, _ = MemoryConsciousCollectiveIO(CFG).plan(
            ctx1, flatten_requests(reqs)
        ).as_tuple()
        static_cfg = CFG.replace(dynamic_placement=False)
        sta, _, _ = MemoryConsciousCollectiveIO(static_cfg).plan(
            ctx2, flatten_requests(reqs)
        ).as_tuple()
        assert {d.aggregator for d in dyn} or {d.aggregator for d in sta}

    def test_grouping_off_single_group(self):
        ctx = make_ctx()
        reqs = serial_requests(8, mib(1))
        cfg = CFG.replace(group_mode="off")
        res = MemoryConsciousCollectiveIO(cfg).write(ctx, ctx.pfs.open("y"), reqs)
        assert res.extras["n_groups"] == 1
