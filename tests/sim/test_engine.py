"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim import Simulator
from repro.util import SimulationError


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_callbacks_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_same_time_fifo(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_run_until_bounds_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_until_in_past_does_not_rewind_clock(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.schedule(10.0, lambda: None)
        sim.run(until=7.0)
        assert sim.now == 7.0
        # Horizon earlier than the current clock: a no-op, not a rewind.
        sim.run(until=2.0)
        assert sim.now == 7.0

    def test_run_until_advances_monotonically_across_calls(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.run(until=3.0)
        assert sim.now == 4.0
        sim.run(until=8.0)
        assert sim.now == 8.0

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(2.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 3.0)]

    def test_runaway_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="runaway"):
            sim.run(max_events=1000)

