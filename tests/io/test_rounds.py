"""Tests for the round engine (timing model, paging, conservation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import scaled_testbed
from repro.io import make_context
from repro.io.domains import FileDomain
from repro.io.rounds import _Remaining, execute_collective
from repro.mpi import AccessRequest, pattern_bytes
from repro.util import CollectiveIOError, Extent, ExtentList, mib


def make_ctx(**kw):
    machine = scaled_testbed(4, cores_per_node=4)
    kw.setdefault("track_data", True)
    return make_context(machine, 8, procs_per_node=2, seed=5, **kw)


def serial_reqs(n, size):
    out = []
    for p in range(n):
        el = ExtentList.single(p * size, size)
        out.append(AccessRequest(p, el, pattern_bytes(el)))
    return out


def simple_domains(reqs, aggs, buffer_bytes):
    total = sum(r.nbytes for r in reqs)
    per = total // len(aggs)
    domains = []
    coverage = ExtentList.union_all([r.extents for r in reqs])
    for i, agg in enumerate(aggs):
        lo = i * per
        hi = (i + 1) * per if i < len(aggs) - 1 else total
        cov = coverage.clip(lo, hi - lo)
        domains.append(
            FileDomain(Extent(lo, hi - lo), cov, agg, buffer_bytes)
        )
    return domains


class TestExecuteCollective:
    def test_trace_structure(self):
        ctx = make_ctx()
        reqs = serial_reqs(8, mib(1))
        domains = simple_domains(reqs, [0, 2, 4, 6], mib(1))
        res = execute_collective(
            ctx, ctx.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        )
        names = [p.name for p in res.trace]
        assert names[0] == "request_exchange"
        assert "transfer" in names
        transfer = res.trace.phases("transfer")[0]
        assert transfer.meta["rounds"] == res.n_rounds
        assert transfer.meta["resource_bound"] <= transfer.duration

    def test_planning_time_charged(self):
        ctx = make_ctx()
        reqs = serial_reqs(8, mib(1))
        domains = simple_domains(reqs, [0, 2, 4, 6], mib(1))
        res = execute_collective(
            ctx, ctx.pfs.open("f"), reqs, domains, kind="write",
            strategy="t", planning_time=1.0,
        )
        assert res.trace.total_time("planning") == pytest.approx(1.0)

    def test_bytes_conserved_in_resource_loads(self):
        ctx = make_ctx()
        reqs = serial_reqs(8, mib(1))
        domains = simple_domains(reqs, [0, 2, 4, 6], mib(1))
        res = execute_collective(
            ctx, ctx.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        )
        transfer = res.trace.phases("transfer")[0]
        # Every OST byte equals the workload (plus overhead inflation).
        ost_bytes = sum(
            b for k, b in transfer.resource_bytes.items()
            if isinstance(k, tuple) and k[0] == "ost"
        )
        assert ost_bytes >= 8 * mib(1)

    def test_zero_buffer_rejected(self):
        ctx = make_ctx()
        reqs = serial_reqs(2, mib(1))
        bad = [
            FileDomain(
                Extent(0, 2 * mib(1)),
                ExtentList.single(0, 2 * mib(1)),
                0,
                0,
            )
        ]
        with pytest.raises(CollectiveIOError):
            execute_collective(
                ctx, ctx.pfs.open("f"), reqs, bad, kind="write", strategy="t"
            )

    def test_paging_slows_oversubscribed_node(self):
        reqs = serial_reqs(8, mib(1))
        fast = make_ctx()
        fast.cluster.set_uniform_available(mib(64))
        slow = make_ctx()
        slow.cluster.set_uniform_available(mib(1) // 2)  # every buffer pages
        domains = simple_domains(reqs, [0, 2, 4, 6], mib(2))
        t_fast = execute_collective(
            fast, fast.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        ).elapsed
        t_slow = execute_collective(
            slow, slow.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        ).elapsed
        assert t_slow >= t_fast

    def test_write_then_read_same_time_shape(self):
        ctx = make_ctx()
        reqs = serial_reqs(8, mib(1))
        domains = simple_domains(reqs, [0, 2, 4, 6], mib(1))
        w = execute_collective(
            ctx, ctx.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        )
        read_reqs = [AccessRequest(r.rank, r.extents) for r in reqs]
        r = execute_collective(
            ctx, ctx.pfs.open("f"), read_reqs, domains, kind="read", strategy="t"
        )
        # Reads are faster (read_factor) but not wildly different.
        assert 0.3 * w.elapsed < r.elapsed <= w.elapsed * 1.01
        for wr, rd in zip(reqs, read_reqs):
            assert np.array_equal(rd.data, wr.data)

    def test_group_sizes_used_for_sync(self):
        ctx = make_ctx()
        reqs = serial_reqs(8, mib(1))
        domains = [
            d if i % 2 == 0 else FileDomain(
                d.region, d.coverage, d.aggregator, d.buffer_bytes, group_id=1
            )
            for i, d in enumerate(simple_domains(reqs, [0, 2, 4, 6], mib(1)))
        ]
        res = execute_collective(
            ctx, ctx.pfs.open("f"), reqs, domains, kind="write",
            strategy="t", group_sizes={0: 4, 1: 4},
        )
        assert res.elapsed > 0

    def test_telemetry_byte_conservation(self):
        ctx = make_ctx()
        reqs = serial_reqs(8, mib(1))
        domains = simple_domains(reqs, [0, 2, 4, 6], mib(1))
        res = execute_collective(
            ctx, ctx.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        )
        tele = res.telemetry
        assert tele is not None
        assert tele.shuffle_intra_bytes == res.shuffle_intra_bytes
        assert tele.shuffle_inter_bytes == res.shuffle_inter_bytes
        assert tele.io_bytes == sum(r.nbytes for r in reqs)
        assert tele.n_rounds == res.n_rounds
        assert (
            tele.total_bytes
            == res.shuffle_intra_bytes + res.shuffle_inter_bytes + tele.io_bytes
        )

    def test_more_bandwidth_never_slower(self):
        reqs = serial_reqs(8, mib(1))
        base = make_ctx()
        boosted = make_context(
            scaled_testbed(4, cores_per_node=4).with_storage(
                ost_bandwidth=base.machine.storage.ost_bandwidth * 4,
                backplane=base.machine.storage.backplane * 4,
                client_stream_bandwidth=(
                    base.machine.storage.client_stream_bandwidth * 4
                ),
            ),
            8,
            procs_per_node=2,
            track_data=True,
            seed=5,
        )
        domains = simple_domains(reqs, [0, 2, 4, 6], mib(1))
        t1 = execute_collective(
            base, base.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        ).elapsed
        t2 = execute_collective(
            boosted, boosted.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        ).elapsed
        assert t2 <= t1


class TestLatencyAccounting:
    """Regression: message startup must be billed per round at that
    round's own per-aggregator message count, not every round at the
    lifetime maximum."""

    def _skewed_scenario(self):
        """One domain, 5 rounds: round 0 has 8 senders, rounds 1-4 one."""
        ctx = make_context(
            scaled_testbed(4, cores_per_node=4), 8, procs_per_node=2, seed=5
        )
        chunk = mib(1) // 8
        reqs = []
        for p in range(7):
            el = ExtentList.single(p * chunk, chunk)
            reqs.append(AccessRequest(p, el))
        # Rank 7 owns its slice of the first MiB plus the whole tail.
        tail = ExtentList.single(7 * chunk, chunk).union(
            ExtentList.single(mib(1), 4 * mib(1))
        )
        reqs.append(AccessRequest(7, tail))
        coverage = ExtentList.union_all([r.extents for r in reqs])
        domains = [FileDomain(Extent(0, 5 * mib(1)), coverage, 0, mib(1))]
        return ctx, reqs, domains

    def test_per_round_message_counts_recorded(self):
        ctx, reqs, domains = self._skewed_scenario()
        res = execute_collective(
            ctx, ctx.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        )
        tele = res.telemetry
        assert res.n_rounds == 5
        assert tele.rounds[0].max_messages == 8
        assert all(r.max_messages == 1 for r in tele.rounds[1:])

    def test_new_accounting_cheaper_than_lifetime_max(self):
        ctx, reqs, domains = self._skewed_scenario()
        res = execute_collective(
            ctx, ctx.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        )
        tele = res.telemetry
        transfer = res.trace.phases("transfer")[0]
        # Reconstruct the old model: every round billed at the lifetime
        # max message count, sync added globally outside the chains.
        lifetime_max = max(r.max_messages for r in tele.rounds)
        chains_no_sync = {}
        for record in tele.rounds:
            for cost in record.domain_costs:
                chains_no_sync[cost.domain_index] = (
                    chains_no_sync.get(cost.domain_index, 0.0)
                    + cost.shuffle_s
                    + cost.io_s
                )
        old_transfer = max(
            transfer.meta["resource_bound"], max(chains_no_sync.values())
        ) + res.n_rounds * (
            ctx.comm.barrier_time() + ctx.network.message_latency(lifetime_max)
        )
        # Strictly cheaper: early rounds are dense, late rounds sparse.
        assert transfer.duration < old_transfer
        # And the latency actually charged is the per-round sum.
        expected_latency = sum(
            ctx.network.message_latency(r.max_messages) for r in tele.rounds
        )
        assert transfer.meta["latency"] == pytest.approx(expected_latency)
        assert expected_latency < res.n_rounds * ctx.network.message_latency(
            lifetime_max
        )

    def test_uniform_rounds_unchanged_latency(self):
        """With identical rounds, per-round accounting equals the old sum."""
        ctx = make_ctx()
        reqs = serial_reqs(8, mib(1))
        domains = simple_domains(reqs, [0, 2, 4, 6], mib(1))
        res = execute_collective(
            ctx, ctx.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        )
        tele = res.telemetry
        counts = {r.max_messages for r in tele.rounds}
        assert len(counts) == 1
        transfer = res.trace.phases("transfer")[0]
        only = counts.pop()
        assert transfer.meta["latency"] == pytest.approx(
            res.n_rounds * ctx.network.message_latency(only)
        )


class TestGroupSyncAccounting:
    """Regression: each aggregator chain pays its own group's barrier,
    not the largest group's barrier applied globally every round."""

    def _grouped_scenario(self):
        ctx = make_context(
            scaled_testbed(4, cores_per_node=4), 8, procs_per_node=2, seed=5
        )
        # Rank 0 owns 4 MiB (group 0, small), rank 2 owns 1 MiB (group 1).
        reqs = [
            AccessRequest(0, ExtentList.single(0, 4 * mib(1))),
            AccessRequest(2, ExtentList.single(4 * mib(1), mib(1))),
        ]
        domains = [
            FileDomain(
                Extent(0, 4 * mib(1)),
                ExtentList.single(0, 4 * mib(1)),
                0,
                mib(1),
                group_id=0,
            ),
            FileDomain(
                Extent(4 * mib(1), mib(1)),
                ExtentList.single(4 * mib(1), mib(1)),
                2,
                mib(1),
                group_id=1,
            ),
        ]
        group_sizes = {0: 2, 1: 8}
        return ctx, reqs, domains, group_sizes

    def test_chains_pay_own_group_barrier(self):
        ctx, reqs, domains, group_sizes = self._grouped_scenario()
        res = execute_collective(
            ctx, ctx.pfs.open("f"), reqs, domains, kind="write",
            strategy="t", group_sizes=group_sizes,
        )
        small = ctx.comm.barrier_time(2)
        large = ctx.comm.barrier_time(8)
        assert small < large
        for record in res.telemetry.rounds:
            for cost in record.domain_costs:
                expected = small if cost.domain_index == 0 else large
                assert cost.sync_s == pytest.approx(expected)

    def test_small_group_not_penalized_by_large(self):
        ctx, reqs, domains, group_sizes = self._grouped_scenario()
        res = execute_collective(
            ctx, ctx.pfs.open("f"), reqs, domains, kind="write",
            strategy="t", group_sizes=group_sizes,
        )
        tele = res.telemetry
        transfer = res.trace.phases("transfer")[0]
        # Old model: max barrier over groups, applied globally per round.
        worst_sync = max(
            ctx.comm.barrier_time(size) for size in group_sizes.values()
        )
        lifetime_max = max(r.max_messages for r in tele.rounds)
        chains_no_sync = {}
        for record in tele.rounds:
            for cost in record.domain_costs:
                chains_no_sync[cost.domain_index] = (
                    chains_no_sync.get(cost.domain_index, 0.0)
                    + cost.shuffle_s
                    + cost.io_s
                )
        old_transfer = max(
            transfer.meta["resource_bound"], max(chains_no_sync.values())
        ) + res.n_rounds * (
            worst_sync + ctx.network.message_latency(lifetime_max)
        )
        assert transfer.duration < old_transfer


class TestPagingTelemetry:
    def test_paging_derates_membw_and_is_recorded(self):
        reqs = serial_reqs(8, mib(1))
        ctx = make_ctx()
        ctx.cluster.set_uniform_available(mib(1) // 2)  # every buffer pages
        domains = simple_domains(reqs, [0, 2, 4, 6], mib(2))
        res = execute_collective(
            ctx, ctx.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        )
        tele = res.telemetry
        assert tele.paging, "oversubscribed nodes must be recorded"
        assert tele.counters["paged_nodes"] == len(tele.paging)
        full_bw = ctx.machine.node.mem_bandwidth
        for node_id, slowdown in tele.paging.items():
            assert slowdown > 1.0
            assert tele.capacities[("membw", node_id)] == pytest.approx(
                full_bw / slowdown
            )

    def test_paging_inflates_membw_drain_time(self):
        reqs = serial_reqs(8, mib(1))
        fast = make_ctx()
        fast.cluster.set_uniform_available(mib(64))
        slow = make_ctx()
        slow.cluster.set_uniform_available(mib(1) // 2)
        domains = simple_domains(reqs, [0, 2, 4, 6], mib(2))
        t_fast = execute_collective(
            fast, fast.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        ).telemetry
        t_slow = execute_collective(
            slow, slow.pfs.open("f"), reqs, domains, kind="write", strategy="t"
        ).telemetry
        assert not t_fast.paging
        fast_drains = t_fast.drain_times()
        slow_drains = t_slow.drain_times()
        membw_keys = [
            k for k in slow_drains
            if isinstance(k, tuple) and k[0] == "membw" and k[1] in t_slow.paging
        ]
        assert membw_keys
        for key in membw_keys:
            assert slow_drains[key] > fast_drains[key]


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 4_000), st.integers(1, 200)), min_size=1, max_size=12
    ),
    sizes=st.lists(st.integers(1, 600), min_size=1, max_size=20),
    remerge_at=st.integers(0, 20),
)
def test_remaining_cursor_windows_match_slice_bytes(pairs, sizes, remerge_at):
    """Cursor windows are the reference byte-rank slices of the remaining coverage."""
    coverage = ExtentList.from_pairs(pairs)
    other = ExtentList.from_pairs((o + 5_000, n) for o, n in pairs)
    remaining = _Remaining([coverage, other])
    reference = coverage
    for step, size in enumerate(sizes):
        if step == remerge_at:
            remaining.install(0, remaining[0].union(remaining[1]))
            reference = reference.union(other)
        if not remaining.left(0):
            break
        window = remaining.window(0, size)
        assert window == reference.slice_bytes(0, size)
        assert remaining.left(0) == reference.total
        remaining.advance(0, window.total)
        reference = reference.slice_bytes(window.total, reference.total)
        assert remaining[0] == reference
