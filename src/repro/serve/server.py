"""The asyncio HTTP front end: routes, NDJSON streams, listeners.

One :class:`ServeAPI` wraps one :class:`CampaignService` and serves the
job API on any number of listeners (TCP and/or Unix socket — the Unix
mode is what tests and CI use, no port juggling).  Endpoints:

====== ============================== =====================================
Method Path                           Meaning
====== ============================== =====================================
GET    /v1/healthz                    liveness + shard count
GET    /v1/stats                      queue depth, jobs by state, store
POST   /v1/jobs                       submit (201, or 429 on back-pressure)
GET    /v1/jobs[?namespace=&state=]   list job descriptors (NDJSON)
GET    /v1/jobs/<id>                  one job descriptor
DELETE /v1/jobs/<id>                  cancel
GET    /v1/jobs/<id>/events[?since=]  NDJSON event stream: snapshot + tail
GET    /v1/jobs/<id>/results          NDJSON result rows (cached payloads)
GET    /v1/metrics                    one gauges/counters/fleet sample
GET    /v1/workers                    the connected remote fleet
POST   /v1/workers                    remote worker attach (token hello)
POST   /v1/sweep                      force a quota/GC sweep
====== ============================== =====================================

``POST /v1/workers`` is the one route that never returns: after the
token check the connection is handed to the lease broker and becomes a
bidirectional frame stream for as long as the worker stays attached
(see :mod:`repro.serve.worker`).

The event stream is the one long-lived response: it backfills every
event after ``since`` (default: all) and then tails the log until the
job reaches a terminal state, at which point the stream ends cleanly.
Everything else is one short request/response per connection
(``Connection: close``), which keeps the parser honest and tiny.
"""

from __future__ import annotations

import asyncio
import json
import threading

from .jobs import QueueFullError
from .protocol import API_PREFIX, NDJSON, STATUS_TEXT, dumps
from .protocol import parse_query
from .service import CampaignService

__all__ = ["ServeAPI", "ServerHandle", "serve_until", "start_in_thread"]

MAX_BODY = 32 * 1024 * 1024  # a scenario doc or spec matrix, with slack


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class ServeAPI:
    """HTTP routing over one :class:`CampaignService`."""

    def __init__(self, service: CampaignService) -> None:
        self.service = service
        self._servers: list[asyncio.AbstractServer] = []

    # -- listeners ------------------------------------------------------
    async def listen_unix(self, path: str) -> None:
        self._servers.append(
            await asyncio.start_unix_server(self._handle, path=path)
        )

    async def listen_tcp(self, host: str, port: int):
        server = await asyncio.start_server(self._handle, host, port)
        self._servers.append(server)
        return server.sockets[0].getsockname()

    async def close(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()

    # -- connection handling --------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            await self._route(reader, writer, method, path, query, body)
        except _HttpError as exc:
            await self._respond(
                writer, exc.status, {"error": exc.message}
            )
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        except Exception as exc:  # noqa: BLE001 — one bad conn != dead server
            try:
                await self._respond(writer, 500, {"error": repr(exc)})
            except OSError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("ascii").split()
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY:
            raise _HttpError(400, "body too large")
        body = await reader.readexactly(length) if length else b""
        path, _, raw_query = target.partition("?")
        return method.upper(), path, parse_query(raw_query), body

    # -- responses ------------------------------------------------------
    @staticmethod
    async def _respond(writer, status: int, obj=None,
                       content_type: str = "application/json") -> None:
        body = (dumps(obj) + "\n").encode() if obj is not None else b""
        head = (
            f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()

    @staticmethod
    async def _start_stream(writer, status: int = 200) -> None:
        head = (
            f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {NDJSON}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode())
        await writer.drain()

    @staticmethod
    async def _stream_line(writer, obj) -> None:
        writer.write((dumps(obj) + "\n").encode())
        await writer.drain()

    # -- routing --------------------------------------------------------
    async def _route(self, reader, writer, method, path, query,
                     body) -> None:
        if not path.startswith(API_PREFIX + "/"):
            raise _HttpError(404, f"unknown path {path!r}")
        parts = path[len(API_PREFIX):].strip("/").split("/")

        if parts == ["healthz"] and method == "GET":
            await self._respond(writer, 200, {
                "ok": True,
                "shards": self.service.shards,
                "workers": self.service.pool.workers_connected,
                "version": _version(),
            })
            return
        if parts == ["stats"] and method == "GET":
            await self._respond(writer, 200, self.service.stats())
            return
        if parts == ["metrics"] and method == "GET":
            await self._respond(writer, 200, self.service.metrics())
            return
        if parts == ["workers"]:
            if method == "GET":
                await self._respond(writer, 200, {
                    "connected": self.service.pool.workers_connected,
                    "fleet": self.service.pool.fleet(),
                })
                return
            if method == "POST":
                await self._attach_worker(reader, writer, body)
                return
            raise _HttpError(405, f"{method} not allowed on /workers")
        if parts == ["sweep"] and method == "POST":
            await self._respond(writer, 200, self.service.store.sweep())
            return
        if parts == ["jobs"]:
            if method == "POST":
                await self._submit(writer, body)
                return
            if method == "GET":
                await self._list_jobs(writer, query)
                return
            raise _HttpError(405, f"{method} not allowed on /jobs")
        if len(parts) >= 2 and parts[0] == "jobs":
            await self._job_routes(writer, method, parts[1:], query)
            return
        raise _HttpError(404, f"unknown path {path!r}")

    async def _attach_worker(self, reader, writer, body: bytes) -> None:
        """Token check, then hand the connection to the lease broker.

        This coroutine runs for the worker's whole attachment; when it
        returns, `_handle`'s cleanup closes the socket (already closed
        by the broker's detach in the normal case — harmless).
        """
        try:
            hello = json.loads(body.decode() or "{}")
        except ValueError:
            raise _HttpError(400, "worker hello is not valid JSON") from None
        expected = self.service.config.worker_token
        if expected and hello.get("token") != expected:
            raise _HttpError(403, "bad worker token")
        name = str(hello.get("name") or "worker")
        await self._start_stream(writer)
        await self.service.pool.serve_worker(name, reader, writer)

    async def _submit(self, writer, body: bytes) -> None:
        try:
            payload = json.loads(body.decode() or "{}")
        except ValueError:
            raise _HttpError(400, "body is not valid JSON") from None
        try:
            job = self.service.submit_payload(payload)
        except QueueFullError as exc:
            raise _HttpError(429, str(exc)) from None
        except (KeyError, ValueError, TypeError) as exc:
            raise _HttpError(400, f"bad submission: {exc}") from None
        await self._respond(writer, 201, job.descriptor())

    async def _list_jobs(self, writer, query) -> None:
        jobs = self.service.manager.list_jobs(
            namespace=query.get("namespace") or None,
            state=query.get("state") or None,
        )
        await self._start_stream(writer)
        for job in jobs:
            await self._stream_line(writer, job.descriptor())

    async def _job_routes(self, writer, method, parts, query) -> None:
        job_id = parts[0]
        try:
            job = self.service.job(job_id)
        except KeyError:
            raise _HttpError(404, f"unknown job {job_id!r}") from None

        if len(parts) == 1:
            if method == "GET":
                await self._respond(writer, 200, job.descriptor())
                return
            if method == "DELETE":
                await self._respond(
                    writer, 200, self.service.cancel(job_id).descriptor()
                )
                return
            raise _HttpError(405, f"{method} not allowed on a job")

        sub = parts[1]
        if sub == "events" and method == "GET":
            try:
                since = int(query.get("since", -1))
            except ValueError:
                raise _HttpError(400, "since must be an integer") from None
            await self._start_stream(writer)
            async for event in job.log.subscribe(since):
                await self._stream_line(writer, event)
            return
        if sub == "results" and method == "GET":
            await self._start_stream(writer)
            for row in self.service.result_rows(job_id):
                await self._stream_line(writer, row)
            return
        raise _HttpError(404, f"unknown job endpoint {sub!r}")


def _version() -> str:
    from .. import __version__

    return __version__


async def serve_until(
    service: CampaignService,
    stop: asyncio.Event,
    socket_path: str | None = None,
    host: str | None = None,
    port: int = 0,
    on_ready=None,
) -> None:
    """Start, listen, wait for ``stop``, stop: ``repro serve`` and
    :func:`start_in_thread` both run this.

    The listener is ``unix:<socket_path>``, else TCP on ``host``
    (default loopback) and ``port`` (0 = any); ``on_ready(address)`` is
    called once it is up.
    """
    api = ServeAPI(service)
    try:
        await service.start()
        if socket_path is not None:
            await api.listen_unix(socket_path)
            address = f"unix:{socket_path}"
        else:
            name = await api.listen_tcp(host or "127.0.0.1", port)
            address = f"{name[0]}:{name[1]}"
        if on_ready is not None:
            on_ready(address)
        await stop.wait()
    finally:
        # Service first: stopping the pool detaches remote workers and
        # ends their long-lived handler connections, which api.close()
        # (3.12+: waits on open handlers) would otherwise block on.
        await service.stop()
        await api.close()


class ServerHandle:
    """A service + API running on a dedicated thread's event loop.

    Tests, benchmarks, and anything else synchronous drive the server
    through this handle: ``address`` for a client, :meth:`call` to run
    a function on the loop (e.g. ``handle.call(service.pause)``), and
    :meth:`stop` for an orderly shutdown.
    """

    def __init__(self) -> None:
        self.service: CampaignService | None = None
        self.address: str | None = None
        self.error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None

    def call(self, fn, *args):
        """Run ``fn(*args)`` on the server loop; returns its result."""
        import concurrent.futures

        fut: concurrent.futures.Future = concurrent.futures.Future()

        def runner():
            try:
                fut.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001
                fut.set_exception(exc)

        self._loop.call_soon_threadsafe(runner)
        return fut.result(timeout=30)

    def stop(self) -> None:
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


def start_in_thread(
    config=None,
    telemetry=None,
    socket_path: str | None = None,
    host: str | None = None,
    port: int = 0,
) -> ServerHandle:
    """Start a full service + listener on a background thread.

    The thread runs :func:`serve_until` under ``asyncio.run``; the
    arguments are its listener's.  Raises whatever startup raised, so
    callers never poll.
    """
    handle = ServerHandle()

    async def _amain():
        handle._loop = asyncio.get_running_loop()
        handle._stop = asyncio.Event()
        service = CampaignService(config, telemetry=telemetry)

        def ready(address: str) -> None:
            handle.service, handle.address = service, address
            handle._ready.set()

        await serve_until(service, handle._stop, socket_path, host, port,
                          ready)

    def _thread_main():
        try:
            asyncio.run(_amain())
        except BaseException as exc:  # noqa: BLE001 — raised by the caller
            handle.error = exc
        finally:
            handle._ready.set()

    thread = threading.Thread(
        target=_thread_main, name="repro-serve", daemon=True
    )
    handle._thread = thread
    thread.start()
    handle._ready.wait(timeout=60)
    if handle.error is not None:
        thread.join(timeout=10)
        raise handle.error
    if handle.address is None:
        raise RuntimeError("serve thread failed to start")
    return handle
