"""Tests for workload generators (coll_perf, IOR, synthetic)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpi import INT
from repro.util import ExtentList, WorkloadError
from repro.workloads import (
    CollPerfWorkload,
    IORWorkload,
    ShuffledChunksWorkload,
    SkewedWorkload,
    StridedWorkload,
    proc_grid,
)


class TestProcGrid:
    def test_perfect_cube(self):
        assert proc_grid(8) == (2, 2, 2)
        assert proc_grid(27) == (3, 3, 3)

    def test_paper_process_count(self):
        dims = proc_grid(120)
        assert dims[0] * dims[1] * dims[2] == 120
        # most-cubic: no dimension dominates
        assert max(dims) <= 8

    def test_prime(self):
        assert proc_grid(7) == (7, 1, 1)

    def test_invalid(self):
        with pytest.raises(WorkloadError):
            proc_grid(0)

    @given(st.integers(1, 512))
    def test_property_product(self, n):
        dims = proc_grid(n)
        assert dims[0] * dims[1] * dims[2] == n
        assert dims == tuple(sorted(dims, reverse=True))


class TestCollPerf:
    def test_paper_configuration_structure(self):
        # Paper: 2048^3 over 120 procs; here scaled to 64^3 with the same
        # grid logic.
        wl = CollPerfWorkload(120, (60, 60, 64), element=INT)
        assert wl.grid[0] * wl.grid[1] * wl.grid[2] == 120
        assert wl.total_bytes() == 60 * 60 * 64 * 4

    def test_blocks_partition_array(self):
        wl = CollPerfWorkload(8, (8, 8, 8))
        union = ExtentList.union_all(
            [wl.extents_for_rank(r) for r in range(8)]
        )
        assert union.to_pairs() == [(0, 2048)]  # 512 INTs x 4 B
        wl.validate_disjoint()

    def test_block_of(self):
        wl = CollPerfWorkload(8, (8, 8, 8))
        subsizes, starts = wl.block_of(0)
        assert subsizes == (4, 4, 4)
        assert starts == (0, 0, 0)
        _, starts_last = wl.block_of(7)
        assert starts_last == (4, 4, 4)

    def test_noncontiguous_segments(self):
        wl = CollPerfWorkload(8, (8, 8, 8))
        # each block: 4x4 pencils of 4 elements
        assert len(wl.extents_for_rank(0)) == 16

    def test_indivisible_rejected(self):
        with pytest.raises(WorkloadError):
            CollPerfWorkload(7, (8, 8, 8))

    def test_requests_with_data(self):
        wl = CollPerfWorkload(8, (4, 4, 4))
        reqs = wl.requests(with_data=True)
        assert len(reqs) == 8
        assert all(r.data is not None for r in reqs)


class TestIOR:
    def test_interleaved_combs(self):
        wl = IORWorkload(4, block_size=400, transfer_size=100)
        assert wl.extents_for_rank(1).to_pairs() == [
            (100, 100), (500, 100), (900, 100), (1300, 100)
        ]

    def test_segmented_contiguous(self):
        wl = IORWorkload(4, block_size=400, segmented=True)
        assert wl.extents_for_rank(2).to_pairs() == [(800, 400)]

    def test_partition_property(self):
        wl = IORWorkload(6, block_size=600, transfer_size=100)
        union = ExtentList.union_all(
            [wl.extents_for_rank(r) for r in range(6)]
        )
        assert union.to_pairs() == [(0, 3600)]
        wl.validate_disjoint()

    def test_indivisible_transfer_rejected(self):
        with pytest.raises(WorkloadError):
            IORWorkload(4, block_size=100, transfer_size=33)

    def test_total_bytes(self):
        wl = IORWorkload(4, block_size=400, transfer_size=100)
        assert wl.total_bytes() == 1600

    @given(
        n_procs=st.integers(1, 12),
        transfer=st.integers(1, 64),
        transfers=st.integers(1, 16),
        segmented=st.booleans(),
        data=st.data(),
    )
    def test_extents_match_normalized_pairs(
        self, n_procs, transfer, transfers, segmented, data
    ):
        """The closed form equals normalizing the transfer list, for
        touching transfers (one rank, one transfer) included."""
        block = transfer * transfers
        wl = IORWorkload(
            n_procs, block_size=block, transfer_size=transfer, segmented=segmented
        )
        rank = data.draw(st.integers(0, n_procs - 1))
        if segmented:
            pairs = [(rank * block, block)]
        else:
            pairs = [
                ((b * n_procs + rank) * transfer, transfer)
                for b in range(transfers)
            ]
        assert wl.extents_for_rank(rank) == ExtentList.from_pairs(pairs)


class TestSynthetic:
    def test_strided(self):
        wl = StridedWorkload(4, block=10, count=3)
        assert wl.extents_for_rank(0).to_pairs() == [(0, 10), (40, 10), (80, 10)]
        wl.validate_disjoint()

    def test_strided_overlap_rejected(self):
        with pytest.raises(WorkloadError):
            StridedWorkload(4, block=10, count=2, stride=5)

    def test_shuffled_chunks_partition(self):
        wl = ShuffledChunksWorkload(4, chunk=100, chunks_per_proc=3, seed=1)
        union = ExtentList.union_all(
            [wl.extents_for_rank(r) for r in range(4)]
        )
        assert union.total == 1200
        wl.validate_disjoint()

    def test_shuffled_chunks_seeded(self):
        a = ShuffledChunksWorkload(4, chunk=10, chunks_per_proc=2, seed=9)
        b = ShuffledChunksWorkload(4, chunk=10, chunks_per_proc=2, seed=9)
        for r in range(4):
            assert a.extents_for_rank(r) == b.extents_for_rank(r)

    def test_skewed_decay(self):
        wl = SkewedWorkload(8, base_bytes=1 << 20, decay=0.5)
        sizes = [wl.extents_for_rank(r).total for r in range(8)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == 1 << 20
        wl.validate_disjoint()

    def test_skewed_floor(self):
        wl = SkewedWorkload(8, base_bytes=1000, decay=0.1, floor=500)
        assert wl.extents_for_rank(7).total == 500

    def test_bad_rank(self):
        wl = StridedWorkload(2, block=10, count=1)
        with pytest.raises(WorkloadError):
            wl.extents_for_rank(2)
