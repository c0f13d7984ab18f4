"""Determinism and cross-strategy invariants.

Simulation results must be exactly reproducible from (workload, machine,
seed) — benchmarks and the paper-vs-measured tables depend on it — and
independent of strategy, the same workload must put the same bytes on
disk.
"""

from __future__ import annotations

from repro.cluster import scaled_testbed
from repro.core import MemoryConsciousCollectiveIO, MemoryConsciousConfig
from repro.io import CollectiveHints, TwoPhaseCollectiveIO, make_context
from repro.util import kib, mib
from repro.workloads import IORWorkload

CFG = MemoryConsciousConfig(
    msg_ind=kib(256), msg_group=mib(2), nah=2, mem_min=kib(64),
    buffer_floor=kib(16),
)


def run_once(strategy, seed=5, variance=True):
    machine = scaled_testbed(4, cores_per_node=4)
    ctx = make_context(
        machine, 8, procs_per_node=2, seed=seed, track_data=True,
        hints=CollectiveHints(cb_buffer_size=kib(256)),
    )
    if variance:
        ctx.cluster.apply_memory_variance(
            ctx.rng, mean_available=kib(512), std=mib(2)
        )
    workload = IORWorkload(8, block_size=kib(256), transfer_size=kib(32))
    f = ctx.pfs.open("d")
    res = strategy.write(ctx, f, workload.requests(with_data=True))
    return res, f


class TestDeterminism:
    def test_same_seed_identical_results(self):
        r1, _ = run_once(MemoryConsciousCollectiveIO(CFG), seed=5)
        r2, _ = run_once(MemoryConsciousCollectiveIO(CFG), seed=5)
        assert r1.elapsed == r2.elapsed
        assert r1.n_rounds == r2.n_rounds
        assert [a.rank for a in r1.aggregators] == [a.rank for a in r2.aggregators]
        assert r1.shuffle_inter_bytes == r2.shuffle_inter_bytes

    def test_different_seed_changes_memory_plan(self):
        r1, _ = run_once(MemoryConsciousCollectiveIO(CFG), seed=5)
        r2, _ = run_once(MemoryConsciousCollectiveIO(CFG), seed=6)
        # Different memory draws -> (almost surely) different plans.
        same = (
            r1.elapsed == r2.elapsed
            and [a.buffer_bytes for a in r1.aggregators]
            == [a.buffer_bytes for a in r2.aggregators]
        )
        assert not same

    def test_baseline_is_seed_independent_without_variance(self):
        r1, _ = run_once(TwoPhaseCollectiveIO(), seed=5, variance=False)
        r2, _ = run_once(TwoPhaseCollectiveIO(), seed=77, variance=False)
        assert r1.elapsed == r2.elapsed


class TestCrossStrategyEquivalence:
    def test_identical_file_images(self):
        _, f1 = run_once(TwoPhaseCollectiveIO())
        _, f2 = run_once(MemoryConsciousCollectiveIO(CFG))
        assert f1.image.snapshot() == f2.image.snapshot()

    def test_identical_application_bytes(self):
        r1, _ = run_once(TwoPhaseCollectiveIO())
        r2, _ = run_once(MemoryConsciousCollectiveIO(CFG))
        assert r1.nbytes == r2.nbytes


class TestConservation:
    def test_shuffle_plus_coverage_accounting(self):
        res, _ = run_once(MemoryConsciousCollectiveIO(CFG))
        total = 8 * kib(256)
        # Every requested byte is shuffled exactly once to an aggregator.
        assert res.shuffle_bytes == total
        # The transfer phase moved shuffle + I/O bytes.
        transfer = res.trace.phases("transfer")[0]
        assert transfer.bytes_moved == 2 * total
