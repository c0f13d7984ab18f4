"""Discrete-event simulation engine.

A minimal event-driven kernel: a simulated clock and a time-ordered
heap of callbacks. The collective-I/O cost models are fluid/analytic
(see :mod:`repro.sim.flows`); the engine sequences a fault schedule
(:mod:`repro.faults.runtime`) against the round engine's clock and
gives tests a controllable clock.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotone sequence number breaks ties), so simulations are exactly
reproducible.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field

from ..util.errors import SimulationError

__all__ = ["Simulator"]


@dataclass(order=True)
class _Scheduled:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)


class Simulator:
    """The event loop: a clock and a priority queue of callbacks."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[_Scheduled] = []
        self._seq = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._heap, _Scheduled(self._now + delay, self._seq, callback))
        self._seq += 1

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Drain the event queue; returns the final simulated time.

        ``until`` bounds simulated time; ``max_events`` is a runaway guard.
        """
        if self._running:
            raise SimulationError("run() re-entered")
        self._running = True
        try:
            count = 0
            while self._heap:
                item = self._heap[0]
                if until is not None and item.time > until:
                    # A horizon in the past must not rewind the clock.
                    self._now = max(self._now, until)
                    return self._now
                heapq.heappop(self._heap)
                count += 1
                if count > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway simulation?"
                    )
                if item.time < self._now:
                    raise SimulationError("event queue went backwards in time")
                self._now = item.time
                item.callback()
            return self._now
        finally:
            self._running = False
