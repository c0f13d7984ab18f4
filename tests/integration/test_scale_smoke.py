"""Scale smoke tests: the planner and engine at 1000+ simulated ranks.

No byte tracking (too much data) — these check that planning stays
feasible, balanced, and fast at the paper's larger scale, and that the
invariants (coverage partition, memory bounds, Nah) hold there too.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import testbed_640
from repro.core import MemoryConsciousCollectiveIO, auto_tune
from repro.io import CollectiveHints, TwoPhaseCollectiveIO, make_context
from repro.util import ExtentList, mib
from repro.workloads import IORWorkload


@pytest.fixture(scope="module")
def machine():
    return testbed_640()


@pytest.fixture(scope="module")
def config(machine):
    return auto_tune(machine).as_config()


class TestThousandRanks:
    N = 1080

    def _ctx(self, machine, mem):
        ctx = make_context(
            machine, self.N, procs_per_node=12, seed=7,
            hints=CollectiveHints(cb_buffer_size=mem),
        )
        ctx.cluster.apply_memory_variance(
            ctx.rng, mean_available=mem, std=mib(50)
        )
        return ctx

    def test_plan_partitions_workload(self, machine, config):
        wl = IORWorkload(self.N, block_size=mib(4), transfer_size=mib(2))
        ctx = self._ctx(machine, mib(8))
        domains, stats, groups = MemoryConsciousCollectiveIO(config).plan(
            ctx, wl.flat_requests()
        ).as_tuple()
        union = ExtentList.union_all([d.coverage for d in domains])
        assert union.total == wl.total_bytes()
        assert sum(d.covered_bytes for d in domains) == wl.total_bytes()
        # Memory never over-promised per node.
        per_node: dict[int, int] = {}
        for d in domains:
            node = ctx.comm.node_of(d.aggregator)
            per_node[node] = per_node.get(node, 0) + d.buffer_bytes
        for node_id, used in per_node.items():
            assert used <= ctx.cluster.nodes[node_id].available_memory

    def test_rounds_reasonably_balanced(self, machine, config):
        wl = IORWorkload(self.N, block_size=mib(4), transfer_size=mib(2))
        ctx = self._ctx(machine, mib(8))
        domains, _, _ = MemoryConsciousCollectiveIO(config).plan(
            ctx, wl.flat_requests()
        ).as_tuple()
        rounds = [d.rounds() for d in domains]
        total_buffer = sum(d.buffer_bytes for d in domains)
        ideal = wl.total_bytes() / total_buffer
        assert max(rounds) <= max(4.0 * ideal, 8.0)

    def test_execution_completes_quickly(self, machine, config):
        wl = IORWorkload(self.N, block_size=mib(4), transfer_size=mib(2))
        ctx = self._ctx(machine, mib(8))
        start = time.monotonic()
        res = MemoryConsciousCollectiveIO(config).write(
            ctx, ctx.pfs.open("f"), wl.requests()
        )
        assert time.monotonic() - start < 60.0
        assert res.bandwidth > 0

    def test_baseline_at_scale(self, machine):
        wl = IORWorkload(self.N, block_size=mib(4), transfer_size=mib(2))
        ctx = make_context(
            machine, self.N, procs_per_node=12, seed=7,
            hints=CollectiveHints(cb_buffer_size=mib(8)),
        )
        res = TwoPhaseCollectiveIO().write(ctx, ctx.pfs.open("f"), wl.requests())
        assert res.n_aggregators == 90  # one per node
        assert res.bandwidth > 0
