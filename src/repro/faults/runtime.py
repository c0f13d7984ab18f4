"""The live fault machinery the round engine runs against.

A :class:`FaultRuntime` owns a private discrete-event
:class:`~repro.sim.engine.Simulator` loaded with one callback per
scheduled :class:`~repro.faults.spec.FaultEvent`. The round engine
advances the runtime's clock to its own progress estimate before each
round (:meth:`FaultRuntime.advance`); events whose time has come fire
in deterministic order and mutate the :class:`FaultState`:

* ``mem_pressure`` raises the target node's baseline memory reservation
  (shrinking what aggregation buffers may hold) and queues the node for
  the engine's reaction pass;
* ``agg_stall`` / ``ost_degrade`` / ``pool_link_degrade`` derate a
  resource key's capacity — the node's memory bus, the OST, or a
  remote-pool access link — for the fault's duration, with the restore
  scheduled as its own event;
* ``pool_saturate`` collapses the remote pool's borrowable capacity by
  the event's fraction and queues the saturation for the engine's
  eviction pass (borrowers above the new capacity fall back to local
  levers); a no-op on machines without a pool;
* ``abort`` raises :class:`~repro.util.errors.TransientFaultError`,
  which campaign runners treat as retryable.

Derates are stored as per-key factor *lists* (not a running product) so
overlapping windows compose and restores can never drift numerically.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import TYPE_CHECKING

from ..cluster.network import membw
from ..cluster.remote_pool import pool_link
from ..fs.pfs import ost_key
from ..sim.engine import Simulator
from ..util.errors import TransientFaultError
from .spec import FaultEvent, FaultSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..io.context import IOContext

__all__ = ["FaultRuntime", "FaultState"]


class FaultState:
    """Live fault conditions, queryable by resource key."""

    def __init__(self) -> None:
        # resource key -> list of active multiplicative derate factors
        self._derates: dict[Hashable, list[float]] = {}
        # resource key -> paging slowdown (replaced, not stacked)
        self._paging: dict[Hashable, float] = {}
        # node ids whose memory shrank and still await an engine reaction
        self.pressured_nodes: list[int] = []
        # pool-saturation fractions awaiting the engine's eviction pass
        self.pool_saturations: list[float] = []

    def push_derate(self, key: Hashable, factor: float) -> None:
        self._derates.setdefault(key, []).append(factor)

    def pop_derate(self, key: Hashable, factor: float) -> None:
        active = self._derates.get(key, [])
        if factor in active:
            active.remove(factor)

    def set_paging(self, key: Hashable, slowdown: float) -> None:
        """Record fault-induced paging on a node's memory bus."""
        self._paging[key] = slowdown

    def clear_paging(self, key: Hashable) -> None:
        self._paging.pop(key, None)

    def derate(self, key: Hashable) -> float:
        """Combined capacity divisor for ``key`` right now (>= 1)."""
        factor = self._paging.get(key, 1.0)
        for f in self._derates.get(key, ()):
            factor *= f
        return factor

    def active_keys(self) -> set[Hashable]:
        """Every key that may have a derate other than 1 right now."""
        return set(self._paging) | {k for k, v in self._derates.items() if v}

    @property
    def any_active(self) -> bool:
        return bool(self._paging) or any(self._derates.values())


class FaultRuntime:
    """One operation's fault schedule, loaded into an event simulator."""

    def __init__(
        self,
        spec: FaultSpec,
        ctx: IOContext,
        *,
        attempt: int = 0,
    ) -> None:
        self.spec = spec
        self.ctx = ctx
        self.attempt = attempt
        self.state = FaultState()
        self.sim = Simulator()
        self.fired: list[FaultEvent] = []  # drained by the engine per round
        self.n_events = 0
        self._original_reserved = {
            node.node_id: node.memory.reserved for node in ctx.cluster.nodes
        }
        pool = ctx.cluster.remote_pool
        events = spec.schedule(
            ctx.cluster.n_nodes,
            ctx.pfs.storage.n_osts,
            n_pool_links=pool.spec.n_links if pool is not None else 1,
            attempt=attempt,
        )
        for ev in events:
            self.sim.schedule(ev.time, lambda ev=ev: self._fire(ev))

    # -------------------------------------------------------------- clock
    def advance(self, now: float) -> list[FaultEvent]:
        """Fire every event due by ``now``; return the newly fired ones.

        ``now`` is the round engine's progress estimate; the clock never
        moves backwards. Raises :class:`TransientFaultError` if an abort
        event fires.
        """
        self.sim.run(until=max(now, self.sim.now))
        fired, self.fired = self.fired, []
        return fired

    # ------------------------------------------------------------- events
    def _fire(self, ev: FaultEvent) -> None:
        self.n_events += 1
        if ev.kind == "abort":
            raise TransientFaultError(
                f"injected transient failure at t={self.sim.now * 1e3:.3f} ms "
                f"(attempt {self.attempt})"
            )
        if ev.kind == "mem_pressure":
            self._apply_pressure(ev)
        elif ev.kind == "agg_stall":
            node_id = ev.target % self.ctx.cluster.n_nodes
            self._apply_derate(ev, membw(node_id))
        elif ev.kind == "ost_degrade":
            n_osts = max(self.ctx.pfs.storage.n_osts, 1)
            self._apply_derate(ev, ost_key(ev.target % n_osts))
        elif ev.kind == "pool_saturate":
            self._apply_pool_saturation(ev)
        elif ev.kind == "pool_link_degrade":
            pool = self.ctx.cluster.remote_pool
            n_links = pool.spec.n_links if pool is not None else 1
            self._apply_derate(ev, pool_link(ev.target % max(n_links, 1)))
        self.fired.append(ev)

    def _apply_pool_saturation(self, ev: FaultEvent) -> None:
        pool = self.ctx.cluster.remote_pool
        if pool is None:
            return  # no remote tier: nothing to saturate
        pool.saturate(ev.fraction)
        self.state.pool_saturations.append(ev.fraction)
        if ev.duration > 0:
            self.sim.schedule(ev.duration, pool.restore)

    def _apply_pressure(self, ev: FaultEvent) -> None:
        node = self.ctx.cluster.nodes[ev.target % self.ctx.cluster.n_nodes]
        capacity = node.memory.capacity
        spike = int(ev.fraction * capacity)
        before = node.memory.reserved
        node.memory.set_reserved(min(capacity, before + spike))
        if node.node_id not in self.state.pressured_nodes:
            self.state.pressured_nodes.append(node.node_id)
        if ev.duration > 0:
            self.sim.schedule(
                ev.duration,
                lambda: node.memory.set_reserved(
                    max(self._original_reserved[node.node_id],
                        node.memory.reserved - spike)
                ),
            )

    def _apply_derate(self, ev: FaultEvent, key: Hashable) -> None:
        self.state.push_derate(key, ev.factor)
        if ev.duration > 0:
            self.sim.schedule(
                ev.duration, lambda: self.state.pop_derate(key, ev.factor)
            )
