"""The asyncio front end: HTTP on localhost and/or a Unix socket.

The wire format is deliberately minimal HTTP/1.1 — enough for curl,
load generators, and :class:`repro.client.PlanClient` — implemented
directly on asyncio streams (the standard library ships no async HTTP
server, and this daemon needs exactly three routes):

========  =========  ====================================================
method    path       behaviour
========  =========  ====================================================
``POST``  /plan      body = :class:`~repro.serve.protocol.PlanRequest`
                     JSON; answers a ``PlanResponse`` (200) or a
                     ``ServeError`` payload (400 bad request, 422 bad
                     spec, 429 overloaded + ``Retry-After``, 500
                     verify-/worker-failed/internal)
``GET``   /metrics   counter/latency/cache snapshot (includes a
                     ``telemetry`` dict the existing loaders consume)
``GET``   /healthz   liveness + schema version
========  =========  ====================================================

Connections are keep-alive (clients reuse one socket for thousands of
requests); malformed or oversized requests close the connection after a
structured error. Each request must arrive whole within
``_READ_DEADLINE_S`` of the daemon starting to read it, so a silent or
stalled client is disconnected (and counted in ``timeouts``) instead of
holding its connection until shutdown. The same handler serves TCP and
Unix-domain sockets.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from collections.abc import Iterator
from typing import Any

from ..util.errors import (
    PlanVerificationError,
    PlanWorkerError,
    ReproError,
    ServeOverloadError,
    SpecError,
)
from .protocol import SCHEMA_VERSION, PlanRequest, ServeError
from .service import PlannerService

__all__ = ["ServeDaemon", "daemon_in_thread"]

_MAX_HEADERS = 100
_MAX_BODY = 8 << 20  # a PlanRequest is ~1 KB; anything near this is abuse
# Seconds from the start of reading a request (the accept, or the last
# response on a keep-alive connection) to the end of its body.
_READ_DEADLINE_S = 30.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _HttpRequest:
    def __init__(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


async def _read_request(reader: asyncio.StreamReader) -> _HttpRequest | None:
    """Parse one HTTP/1.1 request; ``None`` on clean EOF."""
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise SpecError("request line too long") from None
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise SpecError(f"malformed request line {line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADERS):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise SpecError("too many request headers")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise SpecError("bad Content-Length") from None
    if length < 0 or length > _MAX_BODY:
        raise SpecError(f"request body of {length} bytes refused")
    body = await reader.readexactly(length) if length else b""
    return _HttpRequest(method, target.split("?", 1)[0], headers, body)


def _encode_response(
    status: int,
    payload: dict[str, Any],
    *,
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class ServeDaemon:
    """Serve a :class:`PlannerService` over HTTP and/or a Unix socket.

    Args:
        service: the planning core (caller keeps ownership).
        host/port: TCP listen address; ``port=0`` binds an ephemeral
            port (read it back from :attr:`port` after :meth:`start`).
            Pass ``port=None`` to disable TCP.
        unix_path: also (or only) listen on this Unix-domain socket.
    """

    def __init__(
        self,
        service: PlannerService,
        *,
        host: str = "127.0.0.1",
        port: int | None = 0,
        unix_path: str | None = None,
    ) -> None:
        if port is None and unix_path is None:
            raise SpecError("daemon needs a TCP port and/or a unix socket path")
        self.service = service
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self._servers: list[asyncio.Server] = []
        self._connections: set[asyncio.Task[None]] = set()

    # ---------------------------------------------------------------- routing
    async def _dispatch(
        self, request: _HttpRequest
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Route one request to ``(status, payload, extra_headers)``."""
        if request.path == "/healthz":
            if request.method != "GET":
                return 405, ServeError("bad-request", "use GET").to_dict(), {}
            return 200, {"status": "ok", "schema_version": SCHEMA_VERSION}, {}
        if request.path == "/metrics":
            if request.method != "GET":
                return 405, ServeError("bad-request", "use GET").to_dict(), {}
            payload = self.service.metrics_payload()
            payload["schema_version"] = SCHEMA_VERSION
            return 200, payload, {}
        if request.path == "/plan":
            if request.method != "POST":
                return 405, ServeError("bad-request", "use POST").to_dict(), {}
            return await self._handle_plan(request)
        return 404, ServeError("not-found", f"no route {request.path}").to_dict(), {}

    async def _handle_plan(
        self, request: _HttpRequest
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        try:
            data = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, ServeError("bad-request", f"bad JSON body: {exc}").to_dict(), {}
        if not isinstance(data, dict):
            message = f"body must be a JSON object, not {type(data).__name__}"
            return 400, ServeError("bad-request", message).to_dict(), {}
        try:
            plan_request = PlanRequest.from_dict(data)
            response = await self.service.plan(plan_request)
        except ServeOverloadError as exc:
            payload = ServeError(
                "overloaded", str(exc), retry_after_s=exc.retry_after_s
            ).to_dict()
            return 429, payload, {"Retry-After": f"{exc.retry_after_s:.3f}"}
        except SpecError as exc:
            return 422, ServeError("spec-error", str(exc)).to_dict(), {}
        except PlanVerificationError as exc:
            payload = ServeError(
                "verify-failed", str(exc), detail={"by_rule": exc.by_rule}
            ).to_dict()
            return 500, payload, {}
        except PlanWorkerError as exc:
            self.service.metrics.count("errors")
            return 500, ServeError("worker-failed", str(exc)).to_dict(), {}
        except ReproError as exc:
            self.service.metrics.count("errors")
            return 500, ServeError("internal", str(exc)).to_dict(), {}
        return 200, response.to_dict(), {}

    # ------------------------------------------------------------ connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        metrics = self.service.metrics
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        _read_request(reader), _READ_DEADLINE_S
                    )
                except asyncio.TimeoutError:
                    metrics.count("timeouts")
                    break
                except (
                    SpecError,
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                ) as exc:
                    if not isinstance(exc, SpecError):
                        break  # peer went away mid-request
                    writer.write(
                        _encode_response(
                            400,
                            ServeError("bad-request", str(exc)).to_dict(),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                t0 = time.perf_counter()
                metrics.count("requests")
                try:
                    status, payload, extra = await self._dispatch(request)
                except Exception as exc:  # noqa: BLE001 — a request must answer
                    metrics.count("errors")
                    status = 500
                    payload = ServeError("internal", f"{type(exc).__name__}: {exc}").to_dict()
                    extra = {}
                metrics.observe(request.path, time.perf_counter() - t0)
                writer.write(
                    _encode_response(
                        status, payload, keep_alive=request.keep_alive, extra_headers=extra
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    break
        except asyncio.CancelledError:
            # Only stop() cancels a connection. End normally: asyncio's
            # done-callback for client_connected_cb tasks calls
            # task.exception(), which raises on a cancelled task.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    # ---------------------------------------------------------------- control
    async def start(self) -> None:
        """Bind all listeners (resolves :attr:`port` when it was 0)."""
        if self.port is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            self._servers.append(server)
            if self.port == 0 and server.sockets:
                self.port = server.sockets[0].getsockname()[1]
        if self.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path
            )
            self._servers.append(server)

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        self._servers.clear()
        # Idle keep-alive connections sit in readline() forever; cut them.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI wires signals to cancellation)."""
        if not self._servers:
            await self.start()
        try:
            await asyncio.Event().wait()
        finally:
            await self.stop()

    @property
    def url(self) -> str | None:
        if self.port is None:
            return None
        return f"http://{self.host}:{self.port}"


@contextlib.contextmanager
def daemon_in_thread(daemon: ServeDaemon) -> Iterator[ServeDaemon]:
    """Run ``daemon`` on a private event loop in a background thread.

    The context yields after the listeners are bound (so ``daemon.port``
    is resolved) and stops the loop — but not the caller's service — on
    exit. This is how tests and the load generator host a real daemon
    inside one process.
    """
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(daemon.start())
        except BaseException as exc:  # noqa: BLE001 — surfaced to the caller
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(daemon.stop())
            # Handlers that just finished may not have stepped to
            # completion yet; settle them so loop.close() is quiet.
            leftovers = asyncio.all_tasks(loop)
            for leftover in leftovers:
                leftover.cancel()
            if leftovers:
                loop.run_until_complete(
                    asyncio.gather(*leftovers, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("daemon failed to start within 30s")
    if failure:
        raise failure[0]
    try:
        yield daemon
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
