"""Tests for the two-layer (intra-node gather) shuffle coordination."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import BISECTION, Cluster, NetworkModel, membw, scaled_testbed
from repro.core import MemoryConsciousCollectiveIO, MemoryConsciousConfig
from repro.io import CollectiveHints, TwoPhaseCollectiveIO, make_context
from repro.io.domains import FileDomain
from repro.io.shuffle import ExchangeIndex, plan_exchange
from repro.mpi import AccessRequest, SimComm, pattern_bytes
from repro.util import Extent, ExtentList, kib, mib
from repro.workloads import IORWorkload
from tests.io.test_shuffle import charge_list


@pytest.fixture
def comm():
    machine = scaled_testbed(4, cores_per_node=4)
    return SimComm(Cluster(machine, 8, procs_per_node=2), NetworkModel(machine))


def _domain(lo, hi, agg):
    cov = ExtentList.single(lo, hi - lo)
    return FileDomain(Extent(lo, hi - lo), cov, agg, hi - lo)


class TestTwoLayerFlows:
    def _pieces(self, comm):
        # Ranks 0 and 1 (node 0) both send to aggregator rank 6 (node 3).
        reqs = [
            AccessRequest(0, ExtentList.single(0, 100)),
            AccessRequest(1, ExtentList.single(100, 100)),
        ]
        domains = [_domain(0, 200, 6)]
        return plan_exchange(ExchangeIndex(reqs, domains), [domains[0].coverage])

    def test_merges_same_node_messages(self, comm):
        pieces = self._pieces(comm)
        flat_charges, flat = charge_list(comm, pieces)
        merged_charges, merged = charge_list(comm, pieces, two_layer=True)
        assert flat.messages == {0: 2}
        assert merged.messages == {0: 1}
        # Byte accounting identical.
        assert (flat.intra, flat.inter) == (merged.intra, merged.inter)
        on_core = [
            sum(b for key, b in charges if key == BISECTION)
            for charges in (flat_charges, merged_charges)
        ]
        assert on_core == [200.0, 200.0]

    def test_gather_copy_charged_on_source_bus(self, comm):
        pieces = self._pieces(comm)
        charges, _ = charge_list(comm, pieces, two_layer=True)
        # 3 passes: gather write + send read vs the flat case's 1.
        assert charges[0] == (membw(0), 3 * 200.0)
        assert len(charges) == 5

    def test_intra_node_unchanged(self, comm):
        reqs = [AccessRequest(0, ExtentList.single(0, 64))]
        domains = [_domain(0, 64, 1)]  # same node
        pieces = plan_exchange(ExchangeIndex(reqs, domains), [domains[0].coverage])
        charges, out = charge_list(comm, pieces, two_layer=True)
        assert out.intra == 64 and out.inter == 0
        assert charges == [(membw(0), 2 * 64.0)]


class TestTwoLayerEndToEnd:
    def test_byte_accuracy_preserved(self):
        machine = scaled_testbed(4, cores_per_node=4)
        ctx = make_context(
            machine, 8, procs_per_node=2, track_data=True, seed=3,
            hints=CollectiveHints(cb_buffer_size=kib(128), two_layer_shuffle=True),
        )
        wl = IORWorkload(8, block_size=kib(256), transfer_size=kib(32))
        reqs = wl.requests(with_data=True)
        f = ctx.pfs.open("f")
        TwoPhaseCollectiveIO().write(ctx, f, reqs)
        full = ExtentList.union_all([r.extents for r in reqs])
        assert np.array_equal(f.apply_read(full), pattern_bytes(full))

    def test_two_layer_reduces_elapsed_at_scale(self):
        """Many ranks per node: fewer message startups should not hurt."""
        machine = scaled_testbed(4, cores_per_node=12)
        wl = IORWorkload(48, block_size=mib(1), transfer_size=kib(64))
        cfg = MemoryConsciousConfig(
            msg_ind=mib(1), msg_group=mib(16), nah=2, mem_min=kib(256)
        )
        results = {}
        for two_layer in (False, True):
            ctx = make_context(
                machine, 48, procs_per_node=12, seed=3,
                hints=CollectiveHints(
                    cb_buffer_size=mib(1), two_layer_shuffle=two_layer
                ),
            )
            ctx.cluster.set_uniform_available(mib(4))
            res = MemoryConsciousCollectiveIO(cfg).write(
                ctx, ctx.pfs.open("f"), wl.requests()
            )
            results[two_layer] = res
        # Messages drop, bytes identical; elapsed within a small factor
        # (the gather costs memory bandwidth, saves startups).
        assert results[True].shuffle_bytes == results[False].shuffle_bytes
        assert results[True].elapsed <= results[False].elapsed * 1.2
