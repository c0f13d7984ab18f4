"""The HTTP/Unix front end, driven through real sockets."""

from __future__ import annotations

import json

import pytest

from repro.client import ServeClient
from repro.serve import PlannerService, ServeDaemon, ShardedPlanCache
from repro.serve.daemon import daemon_in_thread
from repro.serve.metrics import LatencyHistogram
from repro.serve.protocol import SCHEMA_VERSION, PlanRequest
from repro.serve.service import plan_payload_for_fields
from repro.util.errors import SpecError


@pytest.fixture
def served(tmp_path):
    """A live daemon (TCP + Unix socket) over a sharded cache."""
    cache = ShardedPlanCache(tmp_path / "cache", shards=2)
    service = PlannerService(cache, pool="thread", pool_workers=2)
    unix_path = str(tmp_path / "serve.sock")
    daemon = ServeDaemon(service, port=0, unix_path=unix_path)
    with daemon_in_thread(daemon):
        client = ServeClient(daemon.url)
        try:
            yield client, daemon, cache
        finally:
            client.close()
    service.close_sync()


class TestRoutes:
    def test_healthz(self, served):
        client, _, _ = served
        status, data = client.request("GET", "/healthz")
        assert status == 200
        assert data == {"status": "ok", "schema_version": SCHEMA_VERSION}
        assert client.healthy()

    def test_plan_miss_then_hit(self, served, fields):
        client, _, _ = served
        body = PlanRequest(experiment=fields).to_dict()
        status, first = client.request("POST", "/plan", body)
        assert status == 200 and first["cache_state"] == "miss"
        status, second = client.request("POST", "/plan", body)
        assert status == 200 and second["cache_state"] == "hit"
        assert second["plan"] == first["plan"]
        assert second["spec_hash"] == first["spec_hash"]

    def test_metrics_endpoint(self, served, fields):
        client, _, _ = served
        client.request("POST", "/plan", PlanRequest(experiment=fields).to_dict())
        status, data = client.request("GET", "/metrics")
        assert status == 200
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["counters"]["planning_jobs"] == 1
        assert data["endpoints"]["/plan"]["count"] >= 1
        assert data["cache"]["entries"] == 1
        assert "serve.requests" in data["telemetry"]["counters"]

    def test_unknown_route_404(self, served):
        client, _, _ = served
        status, data = client.request("GET", "/nope")
        assert status == 404 and data["code"] == "not-found"

    def test_wrong_method_405(self, served):
        client, _, _ = served
        status, _ = client.request("POST", "/metrics", {})
        assert status == 405

    def test_bad_json_400(self, served):
        # Malformed JSON and well-formed non-object bodies are the
        # client's fault: 400, never a 500 counted as a daemon error.
        _, daemon, _ = served
        import http.client

        errors = daemon.service.metrics.get("errors")
        for body in (b"{not json", b"[]", b"1", b'"x"', b"null"):
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10)
            conn.request("POST", "/plan", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = json.loads(response.read())
            conn.close()
            assert response.status == 400, body
            assert data["code"] == "bad-request", body
        assert daemon.service.metrics.get("errors") == errors

    def test_bad_spec_422(self, served, fields):
        client, _, _ = served
        bad = dict(fields, machine="no-such-machine")
        status, data = client.request(
            "POST", "/plan", PlanRequest(experiment=bad).to_dict()
        )
        assert status == 422 and data["code"] == "spec-error"

    def test_unknown_field_422(self, served, fields):
        client, _, _ = served
        body = PlanRequest(experiment=dict(fields, surprise=1)).to_dict()
        status, data = client.request("POST", "/plan", body)
        assert status == 422 and data["code"] == "spec-error"


class TestUnixSocket:
    def test_same_service_over_unix(self, served, fields):
        _, daemon, _ = served
        assert daemon.unix_path is not None
        unix_client = ServeClient(unix_socket=daemon.unix_path)
        try:
            status, data = unix_client.request(
                "POST", "/plan", PlanRequest(experiment=fields).to_dict()
            )
        finally:
            unix_client.close()
        assert status == 200
        assert data["cache_state"] in ("miss", "hit")


class TestPoisonedCacheThroughDaemon:
    def test_daemon_rejects_and_replans(self, served, fields):
        """A poisoned entry behind a live daemon is purged and replanned;
        the poisoned bytes never reach a client."""
        client, _, cache = served
        body = PlanRequest(experiment=fields).to_dict()
        _, first = client.request("POST", "/plan", body)
        key = first["spec_hash"]

        clean = plan_payload_for_fields(fields)
        poisoned = json.loads(json.dumps(clean))
        poisoned["domains"][0]["buffer_bytes"] = 10**12
        cache.put(key, poisoned)

        status, served_again = client.request("POST", "/plan", body)
        assert status == 200
        assert served_again["cache_state"] == "rejected"
        assert served_again["plan"] == clean
        _, metrics = client.request("GET", "/metrics")
        assert metrics["counters"]["rejects"] == 1
        # replanned entry was re-stored; the next request is a clean hit
        _, third = client.request("POST", "/plan", body)
        assert third["cache_state"] == "hit"


def _crashing_plan_fn(fields):
    raise MemoryError("worker OOM-killed mid-plan")


class TestWorkerDeath:
    def test_worker_crash_answers_500_worker_failed(self, tmp_path, fields):
        """A dying planning worker is a structured server-side failure:
        500 with the stable ``worker-failed`` code, not a hung socket or
        a generic ``internal`` blob — and the daemon keeps serving."""
        service = PlannerService(
            pool="thread", pool_workers=1, plan_fn=_crashing_plan_fn
        )
        daemon = ServeDaemon(service, port=0)
        with daemon_in_thread(daemon):
            client = ServeClient(daemon.url)
            try:
                body = PlanRequest(experiment=fields).to_dict()
                status, data = client.request("POST", "/plan", body)
                assert status == 500
                assert data["code"] == "worker-failed"
                assert "MemoryError" in data["message"]
                _, metrics = client.request("GET", "/metrics")
                assert metrics["counters"]["worker_failures"] == 1
                # the daemon survived the crash and still answers
                assert client.healthy()
            finally:
                client.close()
        service.close_sync()

    def test_library_errors_still_map_to_spec_error(self, tmp_path, fields):
        """ReproError from the worker is the client's problem (422),
        never laundered into ``worker-failed``."""

        def bad_spec(_fields):
            raise SpecError("synthetic spec rejection")

        service = PlannerService(pool="thread", pool_workers=1, plan_fn=bad_spec)
        daemon = ServeDaemon(service, port=0)
        with daemon_in_thread(daemon):
            client = ServeClient(daemon.url)
            try:
                body = PlanRequest(experiment=fields).to_dict()
                status, data = client.request("POST", "/plan", body)
                assert status == 422 and data["code"] == "spec-error"
            finally:
                client.close()
        service.close_sync()


class TestShutdown:
    def test_stop_cancels_handlers_quietly(self, caplog, monkeypatch):
        # stop() cancels live connection handlers; a cancelled handler
        # must finish normally, or asyncio's client_connected_cb
        # done-callback reports the CancelledError through the loop's
        # exception handler. The client closing first makes the
        # handler sit in wait_closed() when the cancel lands.
        import asyncio
        import http.client
        import logging

        reported = []
        real = asyncio.BaseEventLoop.call_exception_handler

        def record(loop, context):
            reported.append(context)
            real(loop, context)

        monkeypatch.setattr(asyncio.BaseEventLoop, "call_exception_handler", record)
        caplog.set_level(logging.WARNING, logger="asyncio")
        service = PlannerService(None, pool="thread", pool_workers=1)
        try:
            for _ in range(20):
                daemon = ServeDaemon(service, port=0)
                with daemon_in_thread(daemon):
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", daemon.port, timeout=10
                    )
                    conn.request("GET", "/healthz")
                    assert conn.getresponse().read()
                    conn.close()
        finally:
            service.close_sync()
        assert reported == []
        assert [r for r in caplog.records if r.name == "asyncio"] == []


class TestReadDeadline:
    @pytest.fixture
    def short_deadline(self, monkeypatch):
        from repro.serve import daemon as daemon_module

        monkeypatch.setattr(daemon_module, "_READ_DEADLINE_S", 0.2)
        service = PlannerService(None, pool="thread", pool_workers=1)
        daemon = ServeDaemon(service, port=0)
        try:
            with daemon_in_thread(daemon):
                yield daemon, service
        finally:
            service.close_sync()

    def test_silent_and_partial_clients_are_cut_and_counted(self, short_deadline):
        import socket

        daemon, service = short_deadline
        silent = b""
        partial_header = b"POST /plan HTTP/1.1\r\nContent-Length: 10\r\n"
        for sent in (silent, partial_header):
            with socket.create_connection(("127.0.0.1", daemon.port), timeout=10) as sock:
                sock.sendall(sent)
                # the daemon hangs up without answering
                assert sock.recv(1024) == b""
        client = ServeClient(daemon.url)
        try:
            status, data = client.request("GET", "/metrics")
        finally:
            client.close()
        assert status == 200
        assert data["counters"]["timeouts"] == 2
        assert service.metrics.get("requests") == 1  # only /metrics

    def test_client_redials_after_an_idle_cut(self, short_deadline):
        import time

        daemon, service = short_deadline
        client = ServeClient(daemon.url)
        try:
            assert client.healthy()
            time.sleep(0.5)  # idle past the deadline: the daemon hangs up
            assert service.metrics.get("timeouts") == 1
            assert client.healthy()
        finally:
            client.close()


class TestDaemonConstruction:
    def test_needs_some_listener(self):
        service = PlannerService(pool="thread", pool_workers=1)
        with pytest.raises(SpecError, match="TCP port and/or a unix socket"):
            ServeDaemon(service, port=None, unix_path=None)
        service.close_sync()


class TestLatencyHistogram:
    def test_quantiles_are_conservative(self):
        hist = LatencyHistogram()
        for value in (0.001, 0.002, 0.004, 0.008, 0.5):
            hist.observe(value)
        assert hist.count == 5
        assert hist.quantile(0.5) >= 0.002
        assert hist.quantile(0.99) >= 0.5 or hist.quantile(0.99) == hist.max_s
        stats = hist.to_dict()
        assert stats["max_s"] == 0.5
        assert stats["p95_s"] >= stats["p50_s"]

    def test_empty_histogram(self):
        assert LatencyHistogram().quantile(0.95) == 0.0
