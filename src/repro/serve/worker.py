"""`repro worker`: a remote execution daemon that dials the service.

One daemon contributes one execution slot to a running ``repro serve``
instance, from the same host or any other that can reach it over TCP.
The conversation:

1. the daemon connects and sends an HTTP handshake — ``POST
   /v1/workers`` with ``{"token", "name", "pid"}``.  The token must
   match the service's ``--token`` (both default to
   ``$REPRO_SERVE_TOKEN``); a mismatch is a 403 and the daemon gives
   up rather than retrying into a wall.
2. the server answers ``200`` with an NDJSON header and the socket
   becomes a symmetric frame stream: one JSON document per line.
3. server→worker frames: ``welcome`` (assigned name + heartbeat
   cadence), ``lease`` (a key and a canonical spec to execute),
   ``ping``, ``stop``.  Worker→server frames: ``pong`` and ``result``
   (``{"op": "result", "key", "status": "ok"|"err", "body",
   "wall_s", "error"}``).

The worker runs :func:`repro.campaign.runner._execute` — the model
itself, looked up at call time — and ships the summary body back as JSON.  It never touches a
cache: the *service* finishes the result through the same
``_finish`` path a local campaign uses, so a row computed on a remote
host is byte-identical to one computed by a local shard.  Leases run on
a thread-pool executor, keeping the frame loop responsive: pings are
answered mid-execution, which is what lets the broker tell "slow" from
"gone".

A dropped connection (service restart, network blip) is retried every
``reconnect_delay_s`` forever — the pair of retry loops (worker redials,
broker re-queues) is what lets either side be SIGKILLed at any moment
without losing work.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import time

from ..campaign import runner
from .protocol import frame, parse_address, spec_from_canonical

__all__ = ["WorkerAuthError", "WorkerDaemon"]

DEFAULT_RECONNECT_S = 2.0


class WorkerAuthError(Exception):
    """The service rejected our token; retrying would never help."""


class WorkerDaemon:
    """One remote execution slot, reconnecting until told to stop."""

    def __init__(
        self,
        address: str,
        token: str | None = None,
        name: str | None = None,
        reconnect_delay_s: float = DEFAULT_RECONNECT_S,
        max_connects: int | None = None,
    ) -> None:
        self.address = address
        self.token = token
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.reconnect_delay_s = reconnect_delay_s
        self.max_connects = max_connects  # None = redial forever
        self.connects = 0
        self.completed = 0
        self.failed = 0
        self._stop = False
        self._loop: asyncio.AbstractEventLoop | None = None

    def request_stop(self) -> None:
        """Ask the daemon to exit after the current lease (threadsafe)."""
        self._stop = True
        if self._loop is not None and not self._loop.is_closed():
            try:
                # Wake the frame loop even if it's blocked on readline.
                self._loop.call_soon_threadsafe(lambda: None)
            except RuntimeError:
                pass  # the loop closed between the check and the call

    async def run(self) -> None:
        """Dial, serve, and redial until stopped or out of attempts."""
        self._loop = asyncio.get_running_loop()
        while not self._stop:
            if (self.max_connects is not None
                    and self.connects >= self.max_connects):
                return
            self.connects += 1
            try:
                await self._serve_once()
            except WorkerAuthError:
                raise
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass  # service down or mid-restart: redial below
            if self._stop:
                return
            await asyncio.sleep(self.reconnect_delay_s)

    # -- one connection's lifetime --------------------------------------
    async def _serve_once(self) -> None:
        kind, target = parse_address(self.address)
        if kind == "unix":
            reader, writer = await asyncio.open_unix_connection(target)
        else:
            reader, writer = await asyncio.open_connection(*target)
        try:
            status = await self._handshake(reader, writer)
            if status == 403:
                raise WorkerAuthError(
                    f"service at {self.address} rejected worker token"
                )
            if status != 200:
                raise ConnectionError(f"handshake got HTTP {status}")
            await self._frame_loop(reader, writer)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(self, reader, writer) -> int:
        body = json.dumps({
            "token": self.token, "name": self.name, "pid": os.getpid(),
        }, sort_keys=True).encode()
        writer.write(
            b"POST /v1/workers HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n".encode()
            + b"Connection: keep-alive\r\n\r\n"
            + body
        )
        await writer.drain()
        line = await reader.readline()
        try:
            status = int(line.split()[1])
        except (IndexError, ValueError):
            raise ConnectionError(
                f"bad handshake response {line!r}"
            ) from None
        while True:  # drain response headers up to the blank line
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
        return status

    async def _frame_loop(self, reader, writer) -> None:
        lease_task: asyncio.Task | None = None
        try:
            while not self._stop:
                line = await reader.readline()
                if not line:
                    return  # service went away; run() redials
                try:
                    message = json.loads(line)
                except ValueError:
                    continue  # tolerate garbage frames
                op = message.get("op")
                if op == "ping":
                    writer.write(frame({"op": "pong"}))
                    await writer.drain()
                elif op == "lease":
                    # One lease at a time by protocol; execute off-loop
                    # so pings keep flowing during long runs.
                    lease_task = self._loop.create_task(
                        self._run_lease(writer, message)
                    )
                elif op == "stop":
                    self._stop = True
                    return
                # "welcome" and unknown ops: nothing to do.
        finally:
            if lease_task is not None and not lease_task.done():
                lease_task.cancel()

    async def _run_lease(self, writer, message: dict) -> None:
        key = message.get("key")
        started = time.perf_counter()
        try:
            spec = spec_from_canonical(message.get("spec"))
            body, wall_s = await self._loop.run_in_executor(
                None, runner._execute, spec
            )
            reply = {"op": "result", "key": key, "status": "ok",
                     "body": body, "wall_s": wall_s}
            self.completed += 1
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            reply = {"op": "result", "key": key, "status": "err",
                     "error": repr(exc),
                     "wall_s": time.perf_counter() - started}
            self.failed += 1
        try:
            writer.write(frame(reply))
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # broker will see EOF and re-queue the key
