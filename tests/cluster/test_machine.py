"""Tests for machine models and presets."""

from __future__ import annotations

import pytest

from repro.cluster import (
    NodeSpec,
    StorageSpec,
    exascale_2018,
    petascale_2010,
    scaled_testbed,
    testbed_640,
)
from repro.util import ConfigurationError, GB_per_s, MB_per_s, gib, mib


class TestNodeSpec:
    def test_mem_per_core(self):
        node = NodeSpec(12, gib(24), GB_per_s(25), GB_per_s(1.5))
        assert node.mem_per_core == pytest.approx(gib(24) / 12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NodeSpec(0, gib(1), 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            NodeSpec(1, 0, 1.0, 1.0)


class TestStorageSpec:
    def test_aggregate_bandwidth_capped_by_backplane(self):
        s = StorageSpec(
            n_osts=100,
            ost_bandwidth=MB_per_s(100),
            backplane=MB_per_s(500),
            stripe_unit=mib(1),
            request_overhead=1e-3,
        )
        assert s.aggregate_bandwidth == MB_per_s(500)

    def test_aggregate_bandwidth_ost_limited(self):
        s = StorageSpec(
            n_osts=2,
            ost_bandwidth=MB_per_s(100),
            backplane=MB_per_s(500),
            stripe_unit=mib(1),
            request_overhead=1e-3,
        )
        assert s.aggregate_bandwidth == MB_per_s(200)


class TestPresets:
    def test_testbed_matches_paper_platform(self):
        m = testbed_640()
        assert m.n_nodes == 640
        assert m.node.cores == 12  # 2x 6-core Xeon
        assert m.node.mem_capacity == gib(24)
        assert m.storage.stripe_unit == mib(1)  # 1 MB Lustre stripes

    def test_exascale_memory_per_core_is_megabytes(self):
        m = exascale_2018()
        # Table 1: ~10 MB per core at exascale.
        assert m.node.mem_per_core < 20 * 1024 * 1024
        assert m.node.cores == 1000
        assert m.n_nodes == 1_000_000

    def test_petascale_dimensions(self):
        m = petascale_2010()
        assert m.n_nodes == 20_000
        assert m.total_cores == 240_000  # ~225K in Table 1 (rounded grid)

    def test_scaled_testbed_shrinks(self):
        m = scaled_testbed(8)
        assert m.n_nodes == 8
        assert m.storage.n_osts <= 48

    def test_with_storage_and_with_node(self):
        m = testbed_640().with_storage(n_osts=16).with_node(cores=4)
        assert m.storage.n_osts == 16
        assert m.node.cores == 4
        # original untouched (frozen dataclasses)
        assert testbed_640().storage.n_osts == 48
