"""Simulation substrate: discrete-event kernel, fluid flow solver, tracing."""

from .engine import Simulator
from .flows import (
    Flow,
    FluidSimulation,
    PhaseOutcome,
    bottleneck_time,
    max_min_rates,
    solve_phase,
)
from .trace import PhaseRecord, TraceRecorder

__all__ = [
    "Simulator",
    "Flow",
    "PhaseOutcome",
    "max_min_rates",
    "bottleneck_time",
    "FluidSimulation",
    "solve_phase",
    "PhaseRecord",
    "TraceRecorder",
]
