"""Server-side observability: counters and latency histograms.

The daemon needs answers to two questions while it runs: *what happened*
(hits, misses, verifier rejects, coalesced joins, overload refusals,
planning jobs) and *how long requests take* (p50/p95/p99 per endpoint).
:class:`ServeMetrics` keeps both with bounded memory: counters are a
flat dict, latencies go into fixed geometric buckets
(:class:`LatencyHistogram`) so a week of traffic costs the same RAM as
a minute.

The snapshot doubles as the ``/metrics`` payload, and
:meth:`ServeMetrics.to_telemetry` bridges into the existing
:class:`~repro.metrics.telemetry.Telemetry` layer so ``repro trace``
and the JSON exporters can consume server counters unchanged.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Any

from ..metrics.telemetry import Telemetry

__all__ = ["LatencyHistogram", "ServeMetrics"]


def _geometric_bounds() -> tuple[float, ...]:
    """Bucket upper bounds: 2 µs … ~80 s, ×1.6 per step (~42 buckets)."""
    bounds = []
    edge = 2e-6
    while edge < 80.0:
        bounds.append(edge)
        edge *= 1.6
    return tuple(bounds)


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimates.

    Observations land in geometric buckets (worst-case quantile error is
    one bucket ratio, ×1.6 — plenty for p50/p95/p99 dashboards at zero
    allocation per observation). Quantiles interpolate to the bucket's
    upper bound, so estimates are conservative (never under-report).
    """

    BOUNDS: tuple[float, ...] = _geometric_bounds()

    def __init__(self) -> None:
        self.counts = [0] * (len(self.BOUNDS) + 1)  # +1 overflow bucket
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(self.BOUNDS, seconds)] += 1
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def quantile(self, q: float) -> float:
        """The ``q``-quantile in seconds (0 when nothing was observed)."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(q * self.count + 0.5))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                return self.BOUNDS[i] if i < len(self.BOUNDS) else self.max_s
        return self.max_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean_s": self.mean_s,
            "p50_s": self.quantile(0.50),
            "p95_s": self.quantile(0.95),
            "p99_s": self.quantile(0.99),
            "max_s": self.max_s,
        }


class ServeMetrics:
    """Thread-safe counters + per-endpoint latency histograms.

    Counter names are stable API (the load generator and the smoke CI
    assert on them): ``requests``, ``hits``, ``misses``, ``rejects``,
    ``coalesced``, ``overloads``, ``planning_jobs``, ``spec_errors``,
    ``errors``, ``evictions``, ``timeouts``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.endpoints: dict[str, LatencyHistogram] = {}
        # Wall-clock reads are banned in the deterministic packages
        # (L202); operator-facing serve timestamps are the documented
        # exception — dashboards need real epochs, nothing downstream
        # of the planner consumes them.
        self.started_at = time.time()  # repro-lint: disable=L202

    @property
    def uptime_s(self) -> float:
        """Seconds since this metrics registry was created."""
        return max(time.time() - self.started_at, 0.0)  # repro-lint: disable=L202

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def observe(self, endpoint: str, seconds: float) -> None:
        with self._lock:
            hist = self.endpoints.get(endpoint)
            if hist is None:
                hist = self.endpoints[endpoint] = LatencyHistogram()
            hist.observe(seconds)

    def get(self, name: str) -> float:
        with self._lock:
            return self.counters.get(name, 0.0)

    def snapshot(self) -> dict[str, Any]:
        """The ``/metrics`` payload: counters + per-endpoint latencies."""
        with self._lock:
            counters = dict(self.counters)
            endpoints = {name: h.to_dict() for name, h in self.endpoints.items()}
        return {
            "counters": counters,
            "endpoints": endpoints,
            "started_at": self.started_at,
            "uptime_s": self.uptime_s,
        }

    def to_telemetry(self) -> Telemetry:
        """Bridge into the existing telemetry layer.

        Counters are copied under a ``serve.`` prefix; endpoint
        latencies land as ``serve.<endpoint>.<stat>`` counters so the
        whole snapshot survives ``Telemetry.to_dict`` round trips and
        renders through ``telemetry_counter_lines``.
        """
        tele = Telemetry()
        snap = self.snapshot()
        for name, value in sorted(snap["counters"].items()):
            tele.count(f"serve.{name}", value)
        for endpoint, stats in sorted(snap["endpoints"].items()):
            for stat, value in sorted(stats.items()):
                tele.count(f"serve.{endpoint}.{stat}", value)
        return tele
