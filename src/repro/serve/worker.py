"""The member side of the lease protocol: one frame loop for the fleet.

Every fleet member speaks newline-delimited JSON frames
(:func:`~repro.serve.protocol.frame`; the vocabulary is in
``docs/SERVICE.md``).  :func:`serve_frames` is the member side: a local
shard runs it on its end of a ``socket.socketpair()``
(:mod:`repro.serve.shards`), a ``repro worker`` daemon
(:class:`WorkerDaemon`) on a TCP or Unix connection after an HTTP
handshake — ``POST /v1/workers`` with ``{"token", "name", "pid"}``; the
token must match the service's ``--token`` (both default to
``$REPRO_SERVE_TOKEN``), and a 403 makes the daemon give up rather than
retry into a wall.

A lease runs :func:`repro.campaign.runner._execute`, looked up at call
time, on the member's main thread with the frame's ``audit`` flag, and
the summary body goes back as JSON.  A member never touches a cache:
the broker's process finishes every result through the same
``_finish`` path a serial campaign uses, so rows are byte-identical
wherever they ran.  A reader thread parses frames and answers pings
mid-lease, which is what lets the broker tell "slow" from "gone".

A daemon whose connection drops (service restart, network blip)
redials every ``reconnect_delay_s`` forever: with the broker re-queueing
a dead member's lease, either side can be SIGKILLed at any moment
without losing work.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import threading
import time
from collections import Counter

from ..campaign import runner
from .protocol import frame, parse_address, spec_from_canonical

__all__ = ["WorkerAuthError", "WorkerDaemon", "serve_frames"]

DEFAULT_RECONNECT_S = 2.0


def serve_frames(rfile, send, tally: Counter | None = None) -> bool:
    """Answer the frames read from ``rfile`` until the stream ends.

    ``send`` writes one encoded frame (``sock.sendall``).  Returns True
    when a ``stop`` frame ended the stream, False on EOF.  Each lease
    outcome is counted in ``tally`` by status (``"ok"``/``"err"``).
    """
    leases: queue.SimpleQueue = queue.SimpleQueue()
    lock = threading.Lock()

    def reply(data: bytes) -> None:
        with lock:
            send(data)

    def read() -> None:
        stopped = False
        try:
            for line in rfile:
                try:
                    message = json.loads(line)
                except ValueError:
                    continue  # tolerate garbage frames
                op = message.get("op")
                if op == "ping":
                    reply(frame({"op": "pong"}))
                elif op == "lease":
                    leases.put(message)
                elif op == "stop":
                    stopped = True
                    break
                # "welcome" and unknown ops: nothing to do.
        except (OSError, ValueError):
            pass  # the stream broke: same as EOF
        finally:
            leases.put(stopped)

    threading.Thread(target=read, name="repro-frames", daemon=True).start()
    while True:
        message = leases.get()
        if isinstance(message, bool):
            return message
        status, data = _run_lease(message)
        if tally is not None:
            tally[status] += 1
        try:
            reply(data)
        except OSError:
            pass  # the broker sees EOF and re-queues the key


def _run_lease(message: dict) -> tuple[str, bytes]:
    """Execute one lease frame; returns (status, encoded result frame)."""
    key = message.get("key")
    started = time.perf_counter()
    try:
        spec = spec_from_canonical(message.get("spec"))
        body, wall_s = runner._execute(spec, bool(message.get("audit")))
        return "ok", frame({"op": "result", "key": key, "status": "ok",
                            "body": body, "wall_s": wall_s})
    except Exception as exc:  # noqa: BLE001 — report, don't die
        return "err", frame({"op": "result", "key": key, "status": "err",
                             "error": repr(exc),
                             "wall_s": time.perf_counter() - started})


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
        self.tally: Counter = Counter()  # lease outcomes by status
        self._stop = threading.Event()
        self._sock: socket.socket | None = None

    completed = property(lambda self: self.tally["ok"])
    failed = property(lambda self: self.tally["err"])

    def request_stop(self) -> None:
        """Stop serving (threadsafe, signal-safe).

        Shutting the socket down ends the frame stream at once: an idle
        daemon returns from :meth:`run` without waiting for the next
        frame, and a busy one once its run returns (the broker has
        re-queued that lease on EOF).
        """
        self._stop.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed

    def run(self) -> None:
        """Dial, serve, and redial until stopped or out of attempts."""
        while not self._stop.is_set():
            if (self.max_connects is not None
                    and self.connects >= self.max_connects):
                return
            self.connects += 1
            try:
                self._serve_once()
            except WorkerAuthError:
                raise
            except OSError:
                pass  # service down or mid-restart: redial below
            self._stop.wait(self.reconnect_delay_s)

    # -- one connection's lifetime --------------------------------------
    def _serve_once(self) -> None:
        kind, target = parse_address(self.address)
        if kind == "unix":
            sock = socket.socket(socket.AF_UNIX)
        else:
            sock = socket.create_connection(target)
        self._sock = sock
        try:
            with sock, sock.makefile("rb") as rfile:
                if kind == "unix":
                    sock.connect(target)
                if self._stop.is_set():
                    return  # a stop raced the dial
                status = self._handshake(rfile, sock)
                if status == 403:
                    raise WorkerAuthError(
                        f"service at {self.address} rejected worker token"
                    )
                if status != 200:
                    raise ConnectionError(f"handshake got HTTP {status}")
                if serve_frames(rfile, sock.sendall, self.tally):
                    self._stop.set()
        finally:
            self._sock = None

    def _handshake(self, rfile, sock) -> int:
        body = json.dumps({
            "token": self.token, "name": self.name, "pid": os.getpid(),
        }, sort_keys=True).encode()
        sock.sendall(
            b"POST /v1/workers HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n".encode()
            + b"Connection: keep-alive\r\n\r\n"
            + body
        )
        line = rfile.readline()
        try:
            status = int(line.split()[1])
        except (IndexError, ValueError):
            raise ConnectionError(
                f"bad handshake response {line!r}"
            ) from None
        while rfile.readline() not in (b"\r\n", b"\n", b""):
            pass  # drain response headers up to the blank line
        return status
