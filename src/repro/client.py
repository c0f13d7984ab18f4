"""The stable public client API for planning as a service.

Users talk to the planner through two classes, whichever deployment
shape they have:

* :class:`ServeClient` — the low-level synchronous HTTP transport: one
  keep-alive connection to a ``repro serve`` daemon over TCP or a Unix
  socket, speaking the versioned JSON protocol of
  :mod:`repro.serve.protocol`.
* :class:`PlanClient` — the high-level API: hand it an
  :class:`~repro.api.Experiment` (or a wire field dict) and get a
  :class:`~repro.serve.protocol.PlanResponse` back. It prefers a
  daemon when an address is configured and the daemon answers; when no
  daemon is running it **falls back to an in-process engine** that runs
  the exact same pipeline (sharded verified cache → plan → store), so
  the same spec yields byte-identical plan dicts either way.

Error mapping is part of the contract: an overloaded daemon raises
:class:`~repro.util.errors.ServeOverloadError` (with
``retry_after_s``), an invalid spec raises
:class:`~repro.util.errors.SpecError`, a server-side verification
failure raises :class:`~repro.util.errors.PlanVerificationError`, and
anything else surfaces as :class:`~repro.util.errors.ReproError` — all
subclasses of one catchable base.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from collections.abc import Mapping
from typing import Any
from urllib.parse import urlparse

from .api import Experiment
from .serve.metrics import ServeMetrics
from .serve.protocol import (
    SCHEMA_VERSION,
    PlanRequest,
    PlanResponse,
    ServeError,
)
from .serve.service import plan_payload_for_fields
from .serve.shards import ShardedPlanCache
from .util.errors import (
    PlanVerificationError,
    ReproError,
    ServeOverloadError,
    SpecError,
)

__all__ = ["PlanClient", "ServeClient"]


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` socket."""

    def __init__(self, path: str, timeout: float) -> None:
        super().__init__("localhost", timeout=timeout)
        self._unix_path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self._unix_path)
        self.sock = sock


class ServeClient:
    """One synchronous keep-alive connection to a planning daemon.

    Args:
        url: daemon base URL, e.g. ``"http://127.0.0.1:8642"``.
        unix_socket: connect over this Unix-domain socket instead.
        timeout: per-request socket timeout in seconds.
    """

    def __init__(
        self,
        url: str | None = None,
        *,
        unix_socket: str | None = None,
        timeout: float = 30.0,
    ) -> None:
        if (url is None) == (unix_socket is None):
            raise SpecError("pass exactly one of url or unix_socket")
        self.url = url
        self.unix_socket = unix_socket
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            if self.unix_socket is not None:
                self._conn = _UnixHTTPConnection(self.unix_socket, self.timeout)
            else:
                assert self.url is not None
                parsed = urlparse(self.url)
                if parsed.scheme != "http" or parsed.hostname is None:
                    raise SpecError(f"daemon url must be http://host:port, got {self.url!r}")
                self._conn = http.client.HTTPConnection(
                    parsed.hostname, parsed.port or 80, timeout=self.timeout
                )
        return self._conn

    def request(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        """One round trip; returns ``(status, parsed JSON body)``.

        Raises ``OSError`` (connection refused / reset / timeout) when
        the daemon is unreachable — :class:`PlanClient` catches that to
        fall back in-process.
        """
        payload = json.dumps(dict(body)).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        reused = self._conn is not None
        conn = self._connection()
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except OSError as exc:
            # Drop the broken connection so the next call redials.
            self.close()
            # The daemon closes keep-alive connections idle past its read
            # deadline; a request on such a connection is re-sent once.
            idle_cut = isinstance(exc, (ConnectionResetError, BrokenPipeError))
            if reused and idle_cut:
                return self.request(method, path, body)
            raise
        try:
            data = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(f"daemon sent unparseable body: {exc}") from None
        if not isinstance(data, dict):
            raise ReproError(f"daemon sent non-object body: {data!r}")
        return response.status, data

    def healthy(self) -> bool:
        """True when the daemon answers ``/healthz`` with 200."""
        try:
            status, _ = self.request("GET", "/healthz")
        except OSError:
            return False
        return status == 200

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None


def _raise_for_error(status: int, data: Mapping[str, Any]) -> None:
    """Map a non-200 daemon answer to the library exception hierarchy."""
    error = ServeError.from_dict(data)
    if status == 429:
        raise ServeOverloadError(
            error.message or "daemon overloaded",
            retry_after_s=error.retry_after_s if error.retry_after_s is not None else 0.1,
        )
    if status in (400, 422) or error.code in ("bad-request", "spec-error"):
        raise SpecError(error.message or f"daemon rejected request ({status})")
    if error.code == "verify-failed":
        by_rule = error.detail.get("by_rule")
        raise PlanVerificationError(
            error.message or "served plan failed verification",
            by_rule=dict(by_rule) if isinstance(by_rule, Mapping) else None,
        )
    raise ReproError(f"daemon error {status} [{error.code}]: {error.message}")


class _InProcessPlanner:
    """The daemonless engine: the service pipeline, synchronously.

    Same stages as :class:`~repro.serve.service.PlannerService` minus
    coalescing and admission (a sync caller is its own queue): sharded
    verified cache lookup, plan on miss/reject, write back. Plans are
    normalized through canonical JSON exactly like the daemon's worker,
    which is what makes fallback responses byte-identical to daemon
    responses for the same spec.
    """

    def __init__(
        self, cache: ShardedPlanCache | None, metrics: ServeMetrics
    ) -> None:
        self.cache = cache
        self.metrics = metrics

    def plan(self, request: PlanRequest) -> PlanResponse:
        t0 = time.perf_counter()
        self.metrics.count("requests")
        key = request.spec_hash()
        state = "miss"
        plan: dict[str, Any] | None = None
        if self.cache is not None:
            plan, state, _rules = self.cache.get_verified(key)
        if plan is not None:
            self.metrics.count("hits")
        else:
            self.metrics.count("rejects" if state == "rejected" else "misses")
            self.metrics.count("planning_jobs")
            plan = plan_payload_for_fields(dict(request.experiment))
            if self.cache is not None:
                self.cache.put(key, plan)
        self.metrics.observe("/plan", time.perf_counter() - t0)
        return PlanResponse(
            spec_hash=key,
            plan=plan,
            cache_state=state,
            server_wall_s=time.perf_counter() - t0,
        )


class PlanClient:
    """Plan experiments against a daemon, or in-process when there is none.

    Args:
        url: ``repro serve`` base URL (``"http://127.0.0.1:8642"``).
        unix_socket: daemon Unix-socket path (alternative to ``url``).
        cache_dir: plan-cache directory for the **in-process** engine
            (point it at the daemon's cache dir to share entries, or
            leave ``None`` to replan per request).
        cache_max_bytes: byte bound for the in-process cache shards.
        shards: shard count for the in-process cache.
        fallback: when True (default) a dead daemon demotes the client
            to the in-process engine instead of raising; when False,
            connection failures surface as ``ReproError``.
        timeout: daemon request timeout in seconds.

    With neither ``url`` nor ``unix_socket``, the client is purely
    in-process. :attr:`mode` reports which engine answered last
    (``"daemon"`` or ``"in-process"``).
    """

    def __init__(
        self,
        url: str | None = None,
        *,
        unix_socket: str | None = None,
        cache_dir: str | None = None,
        cache_max_bytes: int | None = None,
        shards: int = 8,
        fallback: bool = True,
        timeout: float = 30.0,
    ) -> None:
        self.metrics = ServeMetrics()
        self._serve: ServeClient | None = None
        if url is not None or unix_socket is not None:
            self._serve = ServeClient(url, unix_socket=unix_socket, timeout=timeout)
        self._fallback = fallback
        cache = (
            ShardedPlanCache(cache_dir, shards=shards, max_bytes=cache_max_bytes)
            if cache_dir is not None
            else None
        )
        self._local = _InProcessPlanner(cache, self.metrics)
        self.mode = "daemon" if self._serve is not None else "in-process"

    # ----------------------------------------------------------------- planning
    def plan(self, experiment: Experiment | Mapping[str, Any]) -> PlanResponse:
        """Resolve one experiment to a verified plan.

        Accepts an :class:`Experiment` (string-form specs only) or an
        already-built wire field dict.
        """
        if isinstance(experiment, Experiment):
            request = PlanRequest.from_experiment(experiment)
        else:
            request = PlanRequest(experiment=dict(experiment))
        return self.plan_request(request)

    def plan_request(self, request: PlanRequest) -> PlanResponse:
        if self._serve is not None:
            try:
                status, data = self._serve.request("POST", "/plan", request.to_dict())
            except OSError as exc:
                if not self._fallback:
                    raise ReproError(f"planning daemon unreachable: {exc}") from exc
                self.mode = "in-process"
                self._serve.close()
                self._serve = None
            else:
                self.mode = "daemon"
                if status != 200:
                    _raise_for_error(status, data)
                return PlanResponse.from_dict(data)
        return self._local.plan(request)

    # ------------------------------------------------------------------ metrics
    def server_metrics(self) -> dict[str, Any]:
        """The daemon's ``/metrics`` snapshot (or the local engine's)."""
        if self._serve is not None:
            try:
                status, data = self._serve.request("GET", "/metrics")
            except OSError as exc:
                if not self._fallback:
                    raise ReproError(f"planning daemon unreachable: {exc}") from exc
            else:
                if status == 200:
                    return data
                _raise_for_error(status, data)
        snapshot = self.metrics.snapshot()
        snapshot["schema_version"] = SCHEMA_VERSION
        if self._local.cache is not None:
            snapshot["cache"] = self._local.cache.stats()
        return snapshot

    def close(self) -> None:
        if self._serve is not None:
            self._serve.close()

    def __enter__(self) -> PlanClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
