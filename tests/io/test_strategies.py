"""Tests for the baseline I/O strategies (two-phase, independent, sieving)."""

from __future__ import annotations

import numpy as np

from repro.cluster import scaled_testbed
from repro.io import (
    CollectiveHints,
    DataSievingIO,
    IndependentIO,
    TwoPhaseCollectiveIO,
    make_context,
)
from repro.io.two_phase import default_aggregators
from repro.mpi import AccessRequest, pattern_bytes
from repro.util import ExtentList, mib
from repro.workloads import IORWorkload


def make_ctx(**kw):
    machine = scaled_testbed(4, cores_per_node=4)
    kw.setdefault("track_data", True)
    kw.setdefault("hints", CollectiveHints(cb_buffer_size=mib(1)))
    return make_context(machine, 8, procs_per_node=2, seed=5, **kw)


def interleaved(n=8, blk=64 * 1024, nblk=8):
    wl = IORWorkload(n, block_size=blk * nblk, transfer_size=blk)
    return wl.requests(with_data=True)


class TestDefaultAggregators:
    def test_one_per_node(self):
        ctx = make_ctx()
        assert default_aggregators(ctx, 1) == [0, 2, 4, 6]

    def test_two_per_node(self):
        ctx = make_ctx()
        assert default_aggregators(ctx, 2) == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_capped_at_ranks_on_node(self):
        ctx = make_ctx()
        assert len(default_aggregators(ctx, 99)) == 8


class TestTwoPhase:
    def test_write_byte_accurate(self):
        ctx = make_ctx()
        reqs = interleaved()
        f = ctx.pfs.open("f")
        res = TwoPhaseCollectiveIO().write(ctx, f, reqs)
        full = ExtentList.union_all([r.extents for r in reqs])
        assert np.array_equal(f.apply_read(full), pattern_bytes(full))
        assert res.strategy == "two-phase"
        assert res.n_aggregators == 4  # one per node

    def test_read_roundtrip(self):
        ctx = make_ctx()
        reqs = interleaved()
        f = ctx.pfs.open("f")
        TwoPhaseCollectiveIO().write(ctx, f, reqs)
        read_reqs = [AccessRequest(r.rank, r.extents) for r in reqs]
        TwoPhaseCollectiveIO().read(ctx, f, read_reqs)
        for wr, rd in zip(reqs, read_reqs):
            assert np.array_equal(rd.data, wr.data)

    def test_round_count_scales_with_buffer(self):
        small = make_ctx(hints=CollectiveHints(cb_buffer_size=64 * 1024))
        big = make_ctx(hints=CollectiveHints(cb_buffer_size=mib(4)))
        reqs = interleaved()
        r_small = TwoPhaseCollectiveIO().write(small, small.pfs.open("f"), reqs)
        r_big = TwoPhaseCollectiveIO().write(big, big.pfs.open("f"), reqs)
        assert r_small.n_rounds > r_big.n_rounds
        assert r_small.elapsed > r_big.elapsed

    def test_memory_oblivious_buffers(self):
        ctx = make_ctx(hints=CollectiveHints(cb_buffer_size=mib(4)))
        ctx.cluster.set_uniform_available(mib(1))  # less than cb wants
        reqs = interleaved()
        res = TwoPhaseCollectiveIO().write(ctx, ctx.pfs.open("f"), reqs)
        # The baseline allocates cb_buffer_size anyway (then pages).
        assert res.buffer_max >= mib(1)

    def test_memory_released(self):
        ctx = make_ctx()
        TwoPhaseCollectiveIO().write(ctx, ctx.pfs.open("f"), interleaved())
        assert all(n.memory.in_use == 0 for n in ctx.cluster.nodes)


class TestIndependent:
    def test_write_byte_accurate(self):
        ctx = make_ctx()
        reqs = interleaved()
        f = ctx.pfs.open("f")
        res = IndependentIO().write(ctx, f, reqs)
        full = ExtentList.union_all([r.extents for r in reqs])
        assert np.array_equal(f.apply_read(full), pattern_bytes(full))
        assert res.n_aggregators == 0

    def test_collective_beats_independent_on_noncontiguous(self):
        reqs = interleaved(blk=16 * 1024, nblk=16)
        ctx1, ctx2 = make_ctx(), make_ctx()
        ind = IndependentIO().write(ctx1, ctx1.pfs.open("f"), reqs)
        col = TwoPhaseCollectiveIO().write(ctx2, ctx2.pfs.open("f"), reqs)
        assert col.bandwidth > ind.bandwidth

    def test_read(self):
        ctx = make_ctx()
        reqs = interleaved()
        f = ctx.pfs.open("f")
        IndependentIO().write(ctx, f, reqs)
        rd = [AccessRequest(r.rank, r.extents) for r in reqs]
        IndependentIO().read(ctx, f, rd)
        for wr, r in zip(reqs, rd):
            assert np.array_equal(r.data, wr.data)


class TestDataSieving:
    def test_write_byte_accurate(self):
        ctx = make_ctx()
        reqs = interleaved()
        f = ctx.pfs.open("f")
        DataSievingIO().write(ctx, f, reqs)
        full = ExtentList.union_all([r.extents for r in reqs])
        assert np.array_equal(f.apply_read(full), pattern_bytes(full))

    def test_holey_write_charges_rmw_reads(self):
        # RMW: read traffic appears even though the workload only writes.
        ctx = make_ctx()
        res = DataSievingIO().write(ctx, ctx.pfs.open("f"), interleaved())
        phases = {p.name for p in res.trace}
        assert "sieve_read" in phases
        assert "sieve_write" in phases

    def test_solid_write_skips_rmw(self):
        ctx = make_ctx()
        reqs = [
            AccessRequest(
                p,
                ExtentList.single(p * mib(1), mib(1)),
                pattern_bytes(ExtentList.single(p * mib(1), mib(1))),
            )
            for p in range(8)
        ]
        res = DataSievingIO().write(ctx, ctx.pfs.open("f"), reqs)
        phases = {p.name for p in res.trace}
        assert "sieve_read" not in phases

    def test_sieving_beats_naive_independent_on_dense_combs(self):
        # Fine-grained combs with small holes: sieving's few big requests
        # beat independent I/O's many tiny ones.
        reqs = []
        for p in range(8):
            pairs = [(p * mib(1) + i * 2048, 1024) for i in range(256)]
            el = ExtentList.from_pairs(pairs)
            reqs.append(AccessRequest(p, el, pattern_bytes(el)))
        ctx1, ctx2 = make_ctx(), make_ctx()
        sieve = DataSievingIO().write(ctx1, ctx1.pfs.open("f"), reqs)
        ind = IndependentIO().write(ctx2, ctx2.pfs.open("f"), reqs)
        assert sieve.elapsed < ind.elapsed
