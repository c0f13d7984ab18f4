"""The columnar planner: FlatAccess plumbing and reference parity.

The planner's contract is *bit-identity* with the per-request reference
planner in ``_object_planner``: for any workload both produce the same
serialized plan (``plan_to_dict``, spec hash and all). These tests pin
the contract on hand-built workloads, on the committed golden fixture,
and on the flatten/round-trip plumbing underneath it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import Experiment
from repro.cluster import scaled_testbed
from repro.core import MemoryConsciousCollectiveIO, MemoryConsciousConfig
from repro.core.plans import plan_to_dict
from repro.io import CollectiveHints, make_context
from repro.mpi import AccessRequest, FlatAccess, flatten_requests
from repro.util import ExtentList, kib, mib
from repro.workloads import IORWorkload

from ._object_planner import plan_requests

GOLDEN = Path(__file__).resolve().parents[1] / "fixtures" / "golden.plan.json"


class TestFlatAccess:
    def test_flatten_orders_by_rank(self):
        reqs = [
            AccessRequest(2, ExtentList.single(200, 10)),
            AccessRequest(0, ExtentList.from_pairs([(0, 10), (50, 5)])),
        ]
        flat = flatten_requests(reqs)
        assert flat.ranks.tolist() == [0, 0, 2]
        assert flat.offsets.tolist() == [0, 50, 200]
        assert flat.lengths.tolist() == [10, 5, 10]
        assert flat.total == 25

    def test_round_trip_through_requests(self):
        reqs = [
            AccessRequest(0, ExtentList.from_pairs([(0, 10), (50, 5)])),
            AccessRequest(3, ExtentList.single(100, 20)),
        ]
        back = flatten_requests(reqs).to_requests()
        assert [(r.rank, r.extents) for r in back] == [
            (r.rank, r.extents) for r in reqs
        ]

    def test_aggregate_normalizes(self):
        flat = FlatAccess(
            np.array([0, 5, 30]), np.array([10, 10, 5]), np.array([0, 1, 1])
        )
        agg = flat.aggregate()
        assert list(zip(agg.starts.tolist(), agg.ends.tolist())) == [
            (0, 15),
            (30, 35),
        ]

    def test_rejects_zero_length_segments(self):
        with pytest.raises(Exception):
            FlatAccess(np.array([0]), np.array([0]), np.array([0]))

    def test_workload_flat_requests_match_objects(self):
        for segmented in (True, False):
            wl = IORWorkload(
                12, block_size=kib(4), transfer_size=kib(1),
                segmented=segmented,
            )
            a = flatten_requests(wl.requests())
            b = wl.flat_requests()
            np.testing.assert_array_equal(a.offsets, b.offsets)
            np.testing.assert_array_equal(a.lengths, b.lengths)
            np.testing.assert_array_equal(a.ranks, b.ranks)


def _plan_dict(engine: str, reqs, *, n_nodes=3, ppn=4, cfg=None):
    machine = scaled_testbed(n_nodes, cores_per_node=ppn)
    cfg = cfg or MemoryConsciousConfig(
        msg_ind=kib(64), msg_group=kib(256), buffer_floor=kib(8)
    )
    ctx = make_context(
        machine,
        n_nodes * ppn,
        procs_per_node=ppn,
        hints=CollectiveHints(cb_buffer_size=cfg.msg_ind),
    )
    ctx.cluster.set_uniform_available(mib(1))
    return plan_to_dict(_plan(engine, ctx, reqs, cfg))


def _plan(engine: str, ctx, reqs, cfg):
    """Plan with the production planner ("columnar") or the reference."""
    if engine == "object":
        return plan_requests(ctx, reqs, cfg)
    return MemoryConsciousCollectiveIO(cfg).plan(ctx, flatten_requests(reqs))


class TestEngineParity:
    @pytest.mark.parametrize("mode", ["serial", "interleaved", "off", "auto"])
    def test_ior_plans_identical(self, mode):
        wl = IORWorkload(12, block_size=kib(16), transfer_size=kib(4))
        cfg = MemoryConsciousConfig(
            msg_ind=kib(16), msg_group=kib(64), group_mode=mode,
            buffer_floor=kib(8),
        )
        reqs = wl.requests()
        assert _plan_dict("object", reqs, cfg=cfg) == _plan_dict(
            "columnar", reqs, cfg=cfg
        )

    def test_sparse_overlapping_plans_identical(self):
        reqs = [
            AccessRequest(0, ExtentList.from_pairs([(0, 4096), (65536, 8192)])),
            AccessRequest(3, ExtentList.single(2048, 16384)),
            AccessRequest(5, ExtentList.from_pairs([(40960, 4096), (90112, 512)])),
            AccessRequest(11, ExtentList.single(131072, 65536)),
        ]
        assert _plan_dict("object", reqs) == _plan_dict("columnar", reqs)

    def test_flat_entry_point_matches_object_engine(self):
        wl = IORWorkload(12, block_size=kib(16), transfer_size=kib(4))
        machine = scaled_testbed(3, cores_per_node=4)
        cfg = MemoryConsciousConfig(
            msg_ind=kib(16), msg_group=kib(64), buffer_floor=kib(8)
        )

        def ctx():
            c = make_context(
                machine, 12, procs_per_node=4,
                hints=CollectiveHints(cb_buffer_size=cfg.msg_ind),
            )
            c.cluster.set_uniform_available(mib(1))
            return c

        domains_o, stats_o, sizes_o = plan_requests(
            ctx(), wl.requests(), cfg
        ).as_tuple()
        domains_c, stats_c, sizes_c = (
            MemoryConsciousCollectiveIO(cfg)
            .plan(ctx(), wl.flat_requests())
            .as_tuple()
        )
        assert [
            (d.region, d.coverage, d.aggregator, d.buffer_bytes)
            for d in domains_o
        ] == [
            (d.region, d.coverage, d.aggregator, d.buffer_bytes)
            for d in domains_c
        ]
        assert sizes_o == sizes_c
        assert stats_o.n_remerges == stats_c.n_remerges


class TestGoldenFixtureParity:
    """The planner and the reference must regenerate the golden plan."""

    EXPERIMENT = Experiment(
        machine="testbed-4", n_procs=8, procs_per_node=2,
        workload_params={"block_size": mib(1), "transfer_size": mib(1) // 4},
        cb_buffer=mib(1), seed=3,
    )

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_engine_reproduces_golden(self, engine):
        committed = json.loads(GOLDEN.read_text())
        exp = self.EXPERIMENT
        machine = exp.resolve_machine()
        base = exp.resolve_strategy(machine)
        plan = _plan(engine, exp.context(), exp.requests(), base.config)
        plan.spec_hash = exp.spec_hash()
        regenerated = json.loads(json.dumps(plan_to_dict(plan)))
        assert regenerated == committed
