"""The two-phase round engine.

Both the baseline and the memory-conscious strategy reduce, after
planning, to the same execution shape: a set of file domains with
aggregators and buffer sizes, processed in buffer-sized rounds of
(shuffle, I/O). This module executes that shape: it prices the data
movement through the flow model, applies the byte-accurate data path
when the file tracks data, accounts memory allocations (including
oversubscription → paging penalties), and assembles the
:class:`~repro.io.result.CollectiveResult`.

Timing model. Rounds are *not* globally synchronized (ROMIO aggregators
advance as their own sends/receives complete; there is no barrier), but
within one aggregator the phases serialize — it owns a single collective
buffer, so round ``r+1``'s shuffle cannot start before round ``r``'s
I/O drained the buffer. The makespan is therefore approximated by the
maximum of two lower bounds, plus the latency terms:

* **resource bound** — for every shared resource, all bytes that cross
  it (all domains, all rounds, shuffle and I/O overlapped) divided by
  its capacity;
* **critical chain** — for every aggregator, the serial sum over its
  rounds of that round's *contended* phase times: a round's shuffle
  (I/O) costs the aggregator the drain time of the most-loaded resource
  its own flows touch, counting every aggregator's traffic on that
  resource that round. Aggregators whose rounds collide on the same
  OSTs (ROMIO's stripe-aligned domains famously do) therefore pay the
  collision, while aggregators on disjoint resources proceed
  independently — no global barrier.

The latency terms are accounted where they occur: each round adds one
message-startup charge at *that round's* per-aggregator message count
(not the lifetime maximum), and each aggregator's chain pays its *own
group's* per-round barrier (groups are independent by construction, so
a large group never slows a small group's rounds).

For homogeneous plans (the baseline's identical per-node domains) this
agrees with a strictly synchronized model; for heterogeneous plans it
lets fast aggregators finish early instead of idling.

Fault injection and graceful degradation. When a
:class:`~repro.faults.runtime.FaultRuntime` is supplied, the engine
advances the fault clock to its own progress estimate before every
round, firing scheduled events (memory-pressure spikes, aggregator
stalls, OST degradation, transient aborts). The reaction side lives in
:class:`_DegradationController`: a pressured aggregator whose buffer no
longer fits prices all four degradation levers with the closed forms in
:mod:`repro.faults.levers` — **shrink** the collective buffer in place
(more, smaller rounds), **remerge** the remaining file domain onto the
nearest aggregator with memory headroom, **borrow** the deficit from
the machine's disaggregated remote-memory pool (when one exists), or
**page** — and applies the cheapest feasible one, recording the
decision and every feasible price as a
:class:`~repro.metrics.telemetry.BorrowSpan`. Borrowed bytes stay
remote for the rest of the domain's rounds: each round charges their
round-trip on the pool access link (a first-class resource key, shared
with every other borrower on that link and deratable by the
``pool_link_degrade`` fault) plus the pool's access latency. A
``pool_saturate`` fault collapses pool capacity mid-run; the
controller then evicts borrowers deterministically (largest borrow
first) back onto local levers, re-pricing each evicted domain with
borrow off the table. Every reaction is priced: a re-coordination
barrier + allgather, plus shipping the staged buffer through the flow
model for a remerge; active stalls/degradations derate the affected
resource's capacity in the per-round chain costs.
Degradation is therefore never free — a reshaping reaction (shrink,
remerge, borrow, evict) always adds recovery time, and paging derates
the node for the rest of the run (though a paged non-critical domain
may leave the makespan, a max over chains, unchanged). The engine's
round geometry is tracked as *remaining coverage* per domain (windows
are sliced off the front), which reduces exactly to the classic
``domain.window(r)`` schedule when buffers never change.

While executing, the engine feeds a :class:`~repro.metrics.telemetry.
Telemetry` registry — per-round, per-domain shuffle/I/O/sync spans,
per-resource byte charges, message counts, paging slowdowns, and one
:class:`~repro.metrics.telemetry.FaultSpan` per fault/recovery — so
``repro trace`` can show what degraded and what it cost.

Keeping one engine for both strategies guarantees that measured
differences come from *planning decisions* (domains, aggregators,
buffers, groups) and not from divergent cost accounting.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..cluster.network import BISECTION, membw, nic_in, nic_out
from ..cluster.remote_pool import RemotePool, pool_link
from ..faults.levers import (
    PAGING_PENALTY_FACTOR,
    LeverPrice,
    choose_lever,
    price_borrow,
    price_page,
    price_remerge,
    price_shrink,
)
from ..fs.pfs import IOKind, SimFile
from ..metrics.telemetry import (
    BorrowSpan,
    DomainRoundCost,
    FaultSpan,
    RoundRecord,
    Telemetry,
)
from ..mpi.requests import AccessRequest
from ..sim.flows import ChargeLedger, ResourceIds
from ..sim.trace import TraceRecorder
from ..util.errors import CollectiveIOError
from ..util.intervals import ExtentList
from .context import IOContext
from .domains import FileDomain
from .result import AggregatorInfo, CollectiveResult
from .shuffle import ExchangeIndex, plan_exchange, shuffle_flows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.runtime import FaultRuntime

__all__ = ["execute_collective"]

# Re-coordination after a mid-run degradation exchanges one small
# control record per participant (new buffer size / new domain owner).
_RECOORD_BYTES = 16


def _allocate_buffers(
    ctx: IOContext, domains: Sequence[FileDomain]
) -> dict[int, float]:
    """Claim aggregation buffers on host nodes; return paging slowdowns.

    Domains carrying plan-time borrow provenance claim only their local
    share on the node and register the borrowed share with the cluster's
    remote pool (ignored when the machine has no pool — the whole
    buffer then lives locally). Returns ``{node_id: slowdown}`` for
    nodes pushed past their available memory (empty when everything
    fits).
    """
    pool = ctx.cluster.remote_pool
    for idx, domain in enumerate(domains):
        node = ctx.cluster.node_of_rank(domain.aggregator)
        borrowed = domain.borrowed_bytes if pool is not None else 0
        borrowed = min(borrowed, domain.buffer_bytes, pool.available if pool else 0)
        node.memory.allocate(
            f"aggbuf:{idx}",
            domain.buffer_bytes - borrowed,
            allow_oversubscribe=True,
        )
        if borrowed > 0 and pool is not None:
            pool.borrow(f"aggbuf:{idx}", borrowed, domain.borrow_link)
    slowdowns: dict[int, float] = {}
    for node in ctx.cluster.nodes:
        over = node.memory.oversubscribed_bytes
        if over > 0:
            # Fraction of the aggregation working set that must page:
            # bounded in (0, 1], so the worst slowdown is
            # 1 + PAGING_PENALTY_FACTOR.
            frac = over / max(node.memory.in_use, 1)
            slowdowns[node.node_id] = 1.0 + PAGING_PENALTY_FACTOR * frac
    return slowdowns


def _release_buffers(
    ctx: IOContext,
    domains: Sequence[FileDomain],
    released: frozenset[int] | set[int] = frozenset(),
) -> None:
    pool = ctx.cluster.remote_pool
    for idx, domain in enumerate(domains):
        if pool is not None:
            pool.release(f"aggbuf:{idx}")  # tolerant of never-borrowed tags
        if idx in released:
            continue
        node = ctx.cluster.node_of_rank(domain.aggregator)
        node.memory.release(f"aggbuf:{idx}")


def _move_data(
    file: SimFile,
    requests_by_piece: Sequence,
    kind: IOKind,
) -> None:
    """Byte-accurate data path for one round (verified mode only)."""
    for piece, req in requests_by_piece:
        if kind == "write":
            file.apply_write(piece.piece, req.slice_payload(piece.piece))
        else:
            data = file.apply_read(piece.piece)
            if data is not None:
                req.scatter_payload(piece.piece, data)


class _Remaining:
    """Each domain's remaining coverage: its coverage and a byte cursor.

    Rounds take windows off the front by moving the cursor; a
    single-extent coverage is windowed by arithmetic, any other by two
    searches in its cumulative extent lengths. Indexing builds the
    remaining coverage as an :class:`ExtentList`, for the readers that
    need one (the degradation controller); :meth:`install` replaces a
    domain's coverage (a remerge) and resets its cursor.
    """

    __slots__ = ("coverage", "cursor", "total", "_ranks")

    def __init__(self, coverages: Sequence[ExtentList]) -> None:
        self.coverage = list(coverages)
        self.cursor = [0] * len(self.coverage)
        self.total = [c.total for c in self.coverage]
        # Per coverage, the byte rank where each extent ends; built when
        # a multi-extent coverage is first windowed.
        self._ranks: list[np.ndarray | None] = [None] * len(self.coverage)

    def left(self, i: int) -> int:
        """Bytes of domain ``i``'s coverage no window has taken yet."""
        return self.total[i] - self.cursor[i]

    def window(self, i: int, nbytes: int) -> ExtentList:
        """The next ``nbytes`` of domain ``i``'s remaining coverage.

        The same extents as ``coverage.slice_bytes(cursor, cursor +
        nbytes)``.
        """
        coverage, lo = self.coverage[i], self.cursor[i]
        hi = min(lo + nbytes, self.total[i])
        if len(coverage) == 1:
            return ExtentList.single(int(coverage.starts[0]) + lo, hi - lo)
        ranks = self._ranks[i]
        if ranks is None:
            ranks = self._ranks[i] = np.cumsum(coverage.lengths)
        first = int(ranks.searchsorted(lo, side="right"))
        last = int(ranks.searchsorted(hi, side="left")) + 1
        starts = coverage.starts[first:last].copy()
        ends = coverage.ends[first:last].copy()
        starts[0] = ends[0] - (ranks[first] - lo)
        ends[-1] -= ranks[last - 1] - hi
        return ExtentList(starts, ends, _trusted=True)

    def advance(self, i: int, nbytes: int) -> None:
        self.cursor[i] += nbytes

    def install(self, i: int, coverage: ExtentList) -> None:
        self.coverage[i] = coverage
        self.cursor[i] = 0
        self.total[i] = coverage.total
        self._ranks[i] = None

    def __getitem__(self, i: int) -> ExtentList:
        if not self.cursor[i]:
            return self.coverage[i]
        return self.coverage[i].slice_bytes(self.cursor[i], self.total[i])


class _DegradationController:
    """Reaction side of the fault layer, operating on live engine state.

    Owns no engine state itself — it mutates the state the round loop
    reads (``remaining``, ``buffers``, ``index``, ``released``) and
    charges every reaction through the context's cost models. All
    decisions are pure functions of engine + fault state, so faulted
    runs stay exactly deterministic.
    """

    def __init__(
        self,
        faults: FaultRuntime,
        ctx: IOContext,
        domains: Sequence[FileDomain],
        remaining: _Remaining,
        buffers: list[int],
        index: ExchangeIndex,
        caps: dict[Hashable, float],
        domain_sync: list[float],
        telemetry: Telemetry,
        released: set[int],
        borrows: list[int],
        borrow_links: list[int],
    ) -> None:
        self.faults = faults
        self.ctx = ctx
        self.domains = domains
        self.remaining = remaining
        self.buffers = buffers
        self.index = index
        self.caps = caps
        self.domain_sync = domain_sync
        self.telemetry = telemetry
        self.released = released
        self.borrows = borrows
        self.borrow_links = borrow_links
        self.pool: RemotePool | None = ctx.cluster.remote_pool
        self.shrink_floor = max(1, faults.spec.shrink_floor)

    # ------------------------------------------------------------ pricing
    def eff_cap(self, key: Hashable) -> float:
        """Capacity of ``key`` after active fault derates."""
        return self.caps[key] / self.faults.state.derate(key)

    def derates(self, ids: ResourceIds) -> np.ndarray:
        """Every resource id's active derate (1.0 where none is active)."""
        state = self.faults.state
        out = np.ones(len(ids))
        for key in state.active_keys():
            if key in ids:
                out[ids[key]] = state.derate(key)
        return out

    # ------------------------------------------------------------- rounds
    def begin_round(self, now: float, round_index: int) -> float:
        """Fire due events and react; returns the recovery cost charged.

        May raise :class:`~repro.util.errors.TransientFaultError` when an
        abort event fires.
        """
        for ev in self.faults.advance(now):
            if ev.kind == "ost_degrade":
                target = f"ost:{ev.target}"
            elif ev.kind == "pool_saturate":
                target = "pool"
            elif ev.kind == "pool_link_degrade":
                target = f"pool_link:{ev.target}"
            else:
                target = f"node:{ev.target}"
            note = (
                f"fraction={ev.fraction:g}"
                if ev.kind in ("mem_pressure", "pool_saturate")
                else (f"duration={ev.duration:g}s" if ev.duration > 0 else "")
            )
            self.telemetry.record_fault(
                FaultSpan(
                    kind=ev.kind,
                    t_s=now,
                    round_index=round_index,
                    target=target,
                    factor=ev.factor,
                    note=note,
                )
            )
            self.telemetry.count("fault_events")
        pressured, self.faults.state.pressured_nodes = (
            self.faults.state.pressured_nodes,
            [],
        )
        cost = 0.0
        for node_id in pressured:
            cost += self._react_to_pressure(node_id, now, round_index)
        saturations, self.faults.state.pool_saturations = (
            self.faults.state.pool_saturations,
            [],
        )
        if saturations and self.pool is not None:
            cost += self._evict_over_capacity(now, round_index)
        return cost

    # ---------------------------------------------------------- reactions
    def _react_to_pressure(
        self, node_id: int, now: float, round_index: int
    ) -> float:
        node = self.ctx.cluster.nodes[node_id]
        cost = 0.0
        for i, domain in enumerate(self.domains):
            if i in self.released or not self.remaining.left(i):
                continue
            if self.ctx.comm.node_of(domain.aggregator) != node_id:
                continue
            # What this buffer's *local* share could be resized to right
            # now (borrowed bytes live in the pool, not on the node).
            local = self.buffers[i] - self.borrows[i]
            headroom = node.memory.available + local
            if headroom >= local:
                continue  # the spike left this buffer unharmed
            cost += self._degrade(
                i, node, int(headroom), now, round_index, allow_borrow=True
            )
        return cost

    def _degrade(
        self,
        i: int,
        node,
        headroom: int,
        now: float,
        round_index: int,
        *,
        allow_borrow: bool,
        evicted: bool = False,
    ) -> float:
        """Price the four levers for domain ``i``; apply the cheapest.

        ``headroom`` is what the domain's local allocation could be
        resized to on its node right now. The decision and every
        feasible price land in one :class:`BorrowSpan`, so ``repro
        trace`` (and the property suite) can audit that the chosen
        lever was the minimum-priced feasible one.
        """
        local = self.buffers[i] - self.borrows[i]
        remaining = self.remaining.left(i)
        recoord = self._recoordination_time(i)
        fit = max(0, headroom)
        deficit = local - fit
        options: list[LeverPrice] = []

        new_total = fit + self.borrows[i]
        options.append(
            LeverPrice(
                "shrink",
                price_shrink(
                    remaining,
                    self.buffers[i],
                    new_total,
                    recoord_s=recoord,
                    round_overhead_s=self.domain_sync[i],
                ),
                feasible=fit >= self.shrink_floor,
            )
        )

        taker = self._pick_taker(i, node.node_id)
        options.append(
            LeverPrice(
                "remerge",
                price_remerge(
                    min(self.buffers[i], remaining),
                    self._remerge_path_bandwidth(node.node_id, taker),
                    recoord_s=recoord,
                )
                if taker is not None
                else 0.0,
                feasible=taker is not None,
            )
        )

        pool = self.pool
        link = pool.link_of(node.node_id) if pool is not None else -1
        can_borrow = (
            allow_borrow
            and pool is not None
            and deficit > 0
            and pool.available >= deficit
        )
        if can_borrow:
            contention = pool.borrowers_on_link(link) + (
                0 if self.borrows[i] > 0 else 1
            )
            link_bw = pool.spec.link_bandwidth / self.faults.state.derate(
                pool_link(link)
            )
            borrow_price = price_borrow(
                remaining,
                self.buffers[i],
                self.borrows[i] + deficit,
                link_bandwidth=link_bw,
                latency_s=pool.spec.latency_s,
                contention=contention,
                recoord_s=recoord,
            )
        else:
            borrow_price = 0.0
        options.append(LeverPrice("borrow", borrow_price, feasible=can_borrow))

        options.append(
            LeverPrice(
                "page",
                price_page(
                    remaining,
                    self.eff_cap(membw(node.node_id)),
                    min(1.0, deficit / max(local, 1)),
                ),
            )
        )

        choice = choose_lever(options)
        if choice is None:  # unreachable: page is always feasible
            choice = options[-1]
        prices = {opt.lever: opt.price_s for opt in options if opt.feasible}
        if choice.lever == "shrink":
            cost = self._shrink(i, node, new_total, now, round_index)
            nbytes = new_total
        elif choice.lever == "remerge":
            cost = self._remerge(i, node, taker, now, round_index)
            nbytes = remaining
        elif choice.lever == "borrow":
            cost = self._borrow(i, node, fit, deficit, link, now, round_index)
            nbytes = deficit
        else:
            cost = self._page(i, node, now, round_index)
            nbytes = deficit
        self.telemetry.record_borrow(
            BorrowSpan(
                t_s=now,
                round_index=round_index,
                domain=i,
                lever=("evict:" + choice.lever) if evicted else choice.lever,
                nbytes=nbytes,
                link=link if choice.lever == "borrow" else -1,
                prices=prices,
                cost_s=cost,
                note="pool-saturation eviction" if evicted else "memory pressure",
            )
        )
        return cost

    def _recoordination_time(self, i: int) -> float:
        """Group barrier + control-record allgather after a degradation."""
        return self.domain_sync[i] + self.ctx.comm.allgather_time(_RECOORD_BYTES)

    def _remerge_path_bandwidth(self, src: int, taker: int | None) -> float:
        """Slowest effective resource on the src → taker shipping path."""
        if taker is None:
            return 0.0
        dst = self.ctx.comm.node_of(self.domains[taker].aggregator)
        if src != dst:
            path = (membw(src), nic_out(src), BISECTION, nic_in(dst), membw(dst))
            return min(self.eff_cap(key) for key in path)
        # Same-node handoff crosses the memory bus twice.
        return self.eff_cap(membw(src)) / 2.0

    def _shrink(
        self, i: int, node, new_buffer: int, now: float, round_index: int
    ) -> float:
        """Shrink domain ``i``'s collective buffer to what still fits."""
        old = self.buffers[i]
        node.memory.release(f"aggbuf:{i}")
        node.memory.allocate(
            f"aggbuf:{i}",
            max(0, new_buffer - self.borrows[i]),
            allow_oversubscribe=True,
        )
        self.buffers[i] = new_buffer
        cost = self._recoordination_time(i)
        self.telemetry.record_fault(
            FaultSpan(
                kind="recovery:shrink",
                t_s=now,
                round_index=round_index,
                target=f"domain:{i}",
                nbytes=new_buffer,
                cost_s=cost,
                note=f"buffer {old} -> {new_buffer} B on node {node.node_id}",
            )
        )
        self.telemetry.count("recoveries_shrink")
        return cost

    def _remerge(
        self, i: int, node, taker: int | None, now: float, round_index: int
    ) -> float:
        """Hand domain ``i``'s remaining coverage to a neighbour with room."""
        if taker is None:
            return self._page(i, node, now, round_index)
        moved = self.remaining.left(i)
        self.remaining.install(taker, self.remaining[taker].union(self.remaining[i]))
        self.remaining.install(i, ExtentList.empty())
        self.index.remerge(i, taker)
        node.memory.release(f"aggbuf:{i}")
        if self.pool is not None and self.borrows[i] > 0:
            self.pool.release(f"aggbuf:{i}")
            self.borrows[i] = 0
        self.released.add(i)
        # The staged (already shuffled) round buffer must be re-shipped to
        # the new owner; price it through the flow model's resource path.
        src = node.node_id
        dst = self.ctx.comm.node_of(self.domains[taker].aggregator)
        ship = min(self.buffers[i], moved)
        ship_time = 0.0
        if ship > 0:
            ship_time = ship / self._remerge_path_bandwidth(src, taker)
        cost = self._recoordination_time(i) + ship_time
        self.telemetry.record_fault(
            FaultSpan(
                kind="recovery:remerge",
                t_s=now,
                round_index=round_index,
                target=f"domain:{i}",
                nbytes=moved,
                cost_s=cost,
                note=f"remaining coverage remerged onto domain {taker} "
                f"(node {dst})",
            )
        )
        self.telemetry.count("recoveries_remerge")
        return cost

    def _pick_taker(self, i: int, bad_node: int) -> int | None:
        """Nearest-by-offset live domain on a node with memory headroom."""
        env_i = self.remaining[i].envelope()
        best: int | None = None
        best_key: tuple[float, float, int] | None = None
        for j, domain in enumerate(self.domains):
            if j == i or j in self.released:
                continue
            node_j = self.ctx.comm.node_of(domain.aggregator)
            if node_j == bad_node:
                continue
            avail = self.ctx.cluster.nodes[node_j].memory.available
            if avail < 0:
                continue  # already oversubscribed; don't pile on
            env_j = (
                self.remaining[j].envelope()
                if self.remaining.left(j)
                else domain.region
            )
            gap = float(
                max(env_j.offset - env_i.end, env_i.offset - env_j.end, 0)
            )
            key = (gap, -float(avail), j)
            if best_key is None or key < best_key:
                best, best_key = j, key
        return best

    def _page(self, i: int, node, now: float, round_index: int) -> float:
        """No taker exists: run oversubscribed and pay paging on the bus."""
        over = node.memory.oversubscribed_bytes
        frac = over / max(node.memory.in_use, 1)
        slowdown = 1.0 + PAGING_PENALTY_FACTOR * frac
        self.faults.state.set_paging(membw(node.node_id), slowdown)
        self.telemetry.record_paging(node.node_id, slowdown)
        self.telemetry.record_fault(
            FaultSpan(
                kind="recovery:paging",
                t_s=now,
                round_index=round_index,
                target=f"node:{node.node_id}",
                factor=slowdown,
                note="no neighbour with headroom; running oversubscribed",
            )
        )
        self.telemetry.count("recoveries_paging")
        return 0.0

    def _borrow(
        self,
        i: int,
        node,
        fit: int,
        deficit: int,
        link: int,
        now: float,
        round_index: int,
    ) -> float:
        """Back ``deficit`` bytes of domain ``i``'s buffer with pool memory."""
        pool = self.pool
        assert pool is not None  # feasibility-gated by _degrade
        tag = f"aggbuf:{i}"
        prev = pool.release(tag)
        pool.borrow(tag, prev + deficit, link)
        node.memory.release(tag)
        node.memory.allocate(tag, fit, allow_oversubscribe=True)
        self.borrows[i] = prev + deficit
        self.borrow_links[i] = link
        cost = self._recoordination_time(i) + pool.spec.latency_s
        self.telemetry.record_fault(
            FaultSpan(
                kind="recovery:borrow",
                t_s=now,
                round_index=round_index,
                target=f"domain:{i}",
                nbytes=deficit,
                cost_s=cost,
                note=f"{deficit} B borrowed over pool link {link}",
            )
        )
        self.telemetry.count("recoveries_borrow")
        return cost

    # ----------------------------------------------------------- eviction
    def _evict_over_capacity(self, now: float, round_index: int) -> float:
        """Evict borrows (largest first) until the shrunken pool fits."""
        pool = self.pool
        cost = 0.0
        while pool is not None and pool.overdraft > 0:
            victims = sorted(
                (i for i in range(len(self.domains)) if self.borrows[i] > 0),
                key=lambda i: (-self.borrows[i], i),
            )
            if not victims:
                break  # ledger and borrows[] disagree; nothing to free
            cost += self._evict(victims[0], now, round_index)
        return cost

    def _evict(self, i: int, now: float, round_index: int) -> float:
        """Return domain ``i``'s borrowed bytes; re-price its levers locally."""
        pool = self.pool
        assert pool is not None
        tag = f"aggbuf:{i}"
        freed = pool.release(tag)
        self.borrows[i] = 0
        self.telemetry.record_fault(
            FaultSpan(
                kind="recovery:evict",
                t_s=now,
                round_index=round_index,
                target=f"domain:{i}",
                nbytes=freed,
                note="pool saturated; borrowed bytes returned",
            )
        )
        self.telemetry.count("recoveries_evict")
        if i in self.released or not self.remaining.left(i):
            return 0.0  # domain already done or remerged away
        node_id = self.ctx.comm.node_of(self.domains[i].aggregator)
        node = self.ctx.cluster.nodes[node_id]
        # The whole buffer must live locally again.
        node.memory.release(tag)
        node.memory.allocate(tag, self.buffers[i], allow_oversubscribe=True)
        headroom = node.memory.available + self.buffers[i]
        if headroom >= self.buffers[i]:
            cost = self._recoordination_time(i)
            self.telemetry.record_borrow(
                BorrowSpan(
                    t_s=now,
                    round_index=round_index,
                    domain=i,
                    lever="evict:local",
                    nbytes=freed,
                    cost_s=cost,
                    note="evicted bytes refit locally",
                )
            )
            return cost
        return self._degrade(
            i,
            node,
            int(headroom),
            now,
            round_index,
            allow_borrow=False,
            evicted=True,
        )


def execute_collective(
    ctx: IOContext,
    file: SimFile,
    requests: Sequence[AccessRequest],
    domains: Sequence[FileDomain],
    *,
    kind: IOKind,
    strategy: str,
    planning_time: float = 0.0,
    group_sizes: dict[int, int] | None = None,
    faults: FaultRuntime | None = None,
) -> CollectiveResult:
    """Run the generic two-phase schedule over the planned domains.

    ``planning_time`` lets a strategy charge its own analysis cost (the
    memory-conscious planner pays for group division and placement).
    ``group_sizes`` maps group_id -> participant count, used to price
    per-round synchronization within groups instead of globally.
    ``faults`` plugs in a fault schedule plus the graceful-degradation
    reactions (see the module docstring); ``None`` runs fault-free.
    """
    for domain in domains:
        ctx.comm.check_rank(domain.aggregator)
        if domain.covered_bytes > 0 and domain.buffer_bytes <= 0:
            raise CollectiveIOError(
                f"domain at {domain.region} has no aggregation buffer"
            )
    trace = TraceRecorder()
    trace.record(
        "request_exchange",
        ctx.comm.offsets_exchange_time(),
        n_procs=ctx.n_procs,
    )
    if planning_time > 0:
        trace.record("planning", planning_time)

    slowdowns = _allocate_buffers(ctx, domains)
    caps = ctx.capacity_map(kind)
    for node_id, slowdown in slowdowns.items():
        caps[membw(node_id)] = caps[membw(node_id)] / slowdown
    for i in range(len(domains)):
        caps.setdefault(ctx.pfs.stream_key(i), ctx.pfs.stream_capacity(kind))
    pool = ctx.cluster.remote_pool
    if pool is not None:
        # Pool access links are first-class resources: chargeable,
        # deratable (pool_link_degrade), and visible in telemetry.
        caps.update(pool.capacity_map())

    # Every request's pieces in every domain's coverage, cut once; each
    # round's exchange is one cut over all of its window extents.
    index = ExchangeIndex(requests, domains)
    request_by_rank = {r.rank: r for r in requests}
    planned_rounds = max((d.rounds() for d in domains), default=0)
    intra_total = 0
    inter_total = 0
    track = ctx.pfs.track_data

    # Per-round control messages stay inside each group (the whole job
    # when ungrouped), so each aggregator's chain pays *its own* group's
    # barrier — groups are independent by construction (all traffic
    # stays inside a group), and a single large group must not slow the
    # rounds of every small one.
    if group_sizes:
        sync_by_group = {
            gid: ctx.comm.barrier_time(size)
            for gid, size in group_sizes.items()
        }
        domain_sync = [
            sync_by_group.get(d.group_id, ctx.comm.barrier_time())
            for d in domains
        ]
    else:
        sync_time = ctx.comm.barrier_time()
        domain_sync = [sync_time for _ in domains]

    # Columnar charging: every resource key gets a dense id once per run,
    # and each round's flows arrive as (id, bytes) columns.
    ids = ResourceIds(caps)
    # Per-aggregator serial chains (for the critical-path bound).
    chain_time = [0.0 for _ in domains]
    latency_total = 0.0
    recovery_total = 0.0
    shuffle_bytes_total = 0
    io_bytes_total = 0
    agg_nodes = ctx.comm.nodes_of([d.aggregator for d in domains])

    telemetry = Telemetry()
    telemetry.set_capacities(caps)
    for node_id, slowdown in slowdowns.items():
        telemetry.record_paging(node_id, slowdown)
    telemetry.count("paged_nodes", len(slowdowns))
    telemetry.count("domains", len(domains))
    telemetry.count("aggregator_nodes", len(set(agg_nodes.tolist())))

    # Degradation state: windows are taken off the front of each
    # domain's remaining coverage, so shrinks (smaller windows) and
    # remerges (remaining moved to a neighbour) compose naturally. With
    # no faults this reduces exactly to ``domain.window(r)``.
    remaining = _Remaining([d.coverage for d in domains])
    buffers: list[int] = [d.buffer_bytes for d in domains]
    released: set[int] = set()
    # Live borrow ledger per domain, seeded from what _allocate_buffers
    # actually placed in the pool (plan-time borrows may have been
    # clamped against current availability).
    borrows: list[int] = [
        pool.borrowed_by(f"aggbuf:{i}") if pool is not None else 0
        for i in range(len(domains))
    ]
    borrow_links: list[int] = [d.borrow_link for d in domains]
    telemetry.count("planned_borrows", sum(1 for b in borrows if b > 0))
    controller: _DegradationController | None = None
    max_rounds = planned_rounds
    if faults is not None:
        controller = _DegradationController(
            faults, ctx, domains, remaining, buffers, index,
            caps, domain_sync, telemetry, released, borrows, borrow_links,
        )
        # Runaway guard: even a fully shrunk schedule must terminate.
        floor = max(1, min([controller.shrink_floor, *(b for b in buffers if b > 0)]))
        total_cov = sum(d.covered_bytes for d in domains)
        max_rounds = planned_rounds + 16 + total_cov // floor
    two_layer = ctx.hints.two_layer_shuffle
    # Under two-layer coordination an aggregator rank that owns several
    # domains merges each source node's bytes across all of them into one
    # flow. Per-domain flows charge the same integral bytes in the same
    # key order, but a fault derate turns each charge into a non-integral
    # one whose sum depends on that grouping, so faulted runs keep the
    # round-wide merge for the resource totals.
    merge_across_domains = (
        two_layer
        and controller is not None
        and len({d.aggregator for d in domains}) < len(domains)
    )

    # Run-wide loads per resource (for the resource lower bound), plus a
    # derate-weighted twin: while a stall/OST fault is active, each byte
    # crossing the derated resource counts for ``derate`` bytes of drain
    # work, so transient capacity loss shows up in the aggregate bound
    # too (unfaulted runs alias the nominal load).
    ledger = ChargeLedger(ids, derated=controller is not None)

    empty = ExtentList.empty()
    r = 0
    try:
        while True:
            derate = None
            if controller is not None:
                # Progress estimate so far: same expression as the final
                # makespan, evaluated on the rounds already executed.
                now = (
                    max(max(chain_time, default=0.0), ledger.bound(ledger.derated))
                    + latency_total
                    + recovery_total
                )
                recovery_total += controller.begin_round(now, r)
                derate = controller.derates(ids)
            windows = [
                empty
                if (i in released or not remaining.left(i))
                else remaining.window(i, buffers[i])
                for i in range(len(domains))
            ]
            active = [i for i, w in enumerate(windows) if not w.is_empty]
            if not active:
                break
            if r >= max_rounds:
                raise CollectiveIOError(
                    f"round schedule failed to terminate after {r} rounds "
                    f"(planned {planned_rounds}); degradation runaway?"
                )
            pieces = plan_exchange(index, windows, with_extents=track)
            shuffle = shuffle_flows(
                pieces, ctx.comm, kind, ids,
                two_layer=two_layer, merge_across_domains=merge_across_domains,
            )
            intra_total += shuffle.intra
            inter_total += shuffle.inter
            shuffle_bytes_total += shuffle.intra + shuffle.inter

            # Per-round contended loads, then each domain pays the drain
            # time of the most-loaded resource its own flows touch.
            round_sh, sh_by_key = ledger.charge(
                shuffle.charges if shuffle.merged is None else shuffle.merged, derate
            )
            act = np.asarray(active)
            io, load = ctx.pfs.access_flows(
                agg_nodes[act], [windows[i] for i in active], kind, ids, streams=act
            )
            ctx.pfs.account_access(load, kind)
            sizes = [windows[i].total for i in active]
            round_io_bytes = sum(sizes)
            io_bytes_total += round_io_bytes
            if pool is not None:
                # The borrowed share of a round's window crosses its pool
                # access link twice: staged in during the shuffle, read
                # back for the I/O phase. The charge joins the domain's
                # I/O flows, so its drain time counts too.
                lenders = [k for k, i in enumerate(active) if borrows[i] > 0]
                links = [borrow_links[active[k]] for k in lenders]
                staged = [
                    2.0 * sizes[k] * borrows[active[k]] / max(buffers[active[k]], 1)
                    for k in lenders
                ]
                io = io.extend_segments(
                    lenders, ids.column(pool_link, np.asarray(links, np.int64)), staged
                )
            round_io, io_by_key = ledger.charge(io, derate)

            # Message-startup latency is paid per round at *this* round's
            # per-aggregator message count — a dense first round must not
            # re-bill every later (sparser) round at its own count.
            round_max_msgs = max(shuffle.messages.values(), default=0)
            round_latency = ctx.network.message_latency(round_max_msgs)
            latency_total += round_latency

            eff_cap = ids.caps if derate is None else ids.caps / derate
            sh_costs = dict(
                zip(
                    shuffle.charges.owners.tolist(),
                    shuffle.charges.drain_times(round_sh, eff_cap).tolist(),
                )
            )
            io_costs = io.drain_times(round_io, eff_cap).tolist()
            round_costs: list[DomainRoundCost] = []
            for i, io_cost in zip(active, io_costs):
                sh_cost = sh_costs.get(i, 0.0)
                if pool is not None and borrows[i] > 0:
                    io_cost += pool.spec.latency_s
                chain_time[i] += sh_cost + io_cost + domain_sync[i]
                round_costs.append(
                    DomainRoundCost(
                        domain_index=i,
                        shuffle_s=sh_cost,
                        io_s=io_cost,
                        sync_s=domain_sync[i],
                        messages=shuffle.messages.get(i, 0),
                    )
                )
            telemetry.add_round(
                RoundRecord(
                    index=r,
                    shuffle_intra_bytes=shuffle.intra,
                    shuffle_inter_bytes=shuffle.inter,
                    io_bytes=round_io_bytes,
                    latency_s=round_latency,
                    max_messages=round_max_msgs,
                    shuffle_resource_bytes=sh_by_key,
                    io_resource_bytes=io_by_key,
                    domain_costs=round_costs,
                )
            )

            if track:
                with_data = [
                    (p, request_by_rank[p.src_rank])
                    for p in pieces
                    if request_by_rank[p.src_rank].data is not None
                    or kind == "read"
                ]
                _move_data(file, with_data, kind)
            elif kind == "write":
                # Even without byte tracking, the file's logical size grows.
                for i in active:
                    file.apply_write(windows[i], None)

            for i, nbytes in zip(active, sizes):
                remaining.advance(i, nbytes)
            r += 1
    finally:
        _release_buffers(ctx, domains, released)

    resource_bound = ledger.bound(ledger.load)
    # The critical chain already includes each aggregator's own group's
    # per-round barriers; the message-startup latency accumulated per
    # round (at that round's message count) is added on top. Faulted
    # runs pay the derate-weighted resource bound (>= nominal).
    critical_chain = max(chain_time, default=0.0)
    transfer_time = max(ledger.bound(ledger.derated), critical_chain)
    trace.record(
        "transfer",
        transfer_time + latency_total,
        bytes_moved=shuffle_bytes_total + io_bytes_total,
        resource_bytes=ledger.totals(),
        resource_bound=resource_bound,
        critical_chain=critical_chain,
        latency=latency_total,
        rounds=r,
    )
    if recovery_total > 0:
        # Degradations are priced, not free: the re-coordination time is
        # serial with the transfer (the affected group stops to reshape).
        trace.record(
            "recovery",
            recovery_total,
            recoveries=len(telemetry.recovery_spans),
        )

    infos = [
        AggregatorInfo(
            rank=d.aggregator,
            node_id=ctx.comm.node_of(d.aggregator),
            domain_bytes=d.covered_bytes,
            buffer_bytes=d.buffer_bytes,
            rounds=d.rounds(),
            group_id=d.group_id,
        )
        for d in domains
    ]
    app_bytes = sum(r.nbytes for r in requests)
    return CollectiveResult(
        kind=kind,
        strategy=strategy,
        elapsed=trace.now,
        nbytes=app_bytes,
        n_rounds=r,
        aggregators=infos,
        shuffle_intra_bytes=intra_total,
        shuffle_inter_bytes=inter_total,
        trace=trace,
        telemetry=telemetry,
    )
