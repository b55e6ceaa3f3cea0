"""The lease broker: local process shards plus remote TCP workers.

The broker owns the service's execution fleet.  Two member kinds share
one lease discipline — **at most one lease per member**, so lease
accounting is exact: whatever a dead member was holding is precisely
``member.lease``.

* **Local shards** are long-lived ``multiprocessing.Process`` children
  connected by duplex pipes.  Each receives one
  :class:`~repro.campaign.spec.RunSpec` and answers
  ``("ok", summary_body, wall_s)`` or ``("err", repr)``.  Death
  detection needs no signals or polling: the parent registers each
  pipe with the event loop (``loop.add_reader``), and a shard killed
  mid-lease (SIGKILL included) closes its pipe end, which surfaces as
  ``EOFError`` on the next read.  Dead shards are respawned.

* **Remote workers** are ``repro worker`` daemons on this or other
  hosts that dialed the service over TCP (``POST /v1/workers`` with a
  shared token, then one JSON frame per line in both directions — see
  :mod:`repro.serve.worker`).  A worker whose connection drops
  (process SIGKILLed, host rebooted) surfaces as EOF on its stream; a
  worker whose *host vanished without closing TCP* (network partition,
  power loss) is caught by the heartbeat loop — the broker pings every
  ``heartbeat_s`` and detaches a worker silent for three intervals —
  or by the hard ``lease_timeout_s`` cap on any single lease.

Either way the orphaned lease is reported to ``on_result`` as
``("died", reason)``, which releases the key back to the queue exactly
like a SIGKILLed local shard: one charged retry, never a stranded spec.

With ``width=0`` and no remote workers attached, the broker has one
inline slot: it executes one lease at a time on a daemon thread, in
this process — how a serial ``repro campaign`` runs, and the no-fleet
fallback tests and cache-hit-dominated benches rely on.  The thread is
not the loop's executor, which ``asyncio.run`` joins at shutdown: a
Ctrl-C does not wait for the running spec.  The moment a remote worker
attaches, inline execution stops and the fleet does the work.

Shards and the inline slot call :func:`repro.campaign.runner._execute`
with the broker's ``audit`` flag (remote workers never audit).  Members
look it up at call time, so a test's patch
(``tests/fault_executor.py``) reaches every one of them.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import threading
import time

from ..campaign import runner
from .protocol import frame

__all__ = ["LeaseBroker", "RemoteWorker"]

DEFAULT_SHARDS = 2
DEFAULT_HEARTBEAT_S = 10.0
DEFAULT_LEASE_TIMEOUT_S = 600.0
# A worker silent for this many heartbeat intervals is presumed gone.
MISSED_HEARTBEATS = 3


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context("spawn")


def _shard_main(conn, audit: bool) -> None:
    """Worker loop: one spec in, one summary out, until ``stop``."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away
        if message[0] == "stop":
            return
        spec = message[1]
        try:
            body, wall_s = runner._execute(spec, audit)
            reply = ("ok", body, wall_s)
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            reply = ("err", repr(exc))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class _Shard:
    """One worker process plus its parent-side pipe and current lease."""

    __slots__ = ("index", "proc", "conn", "lease", "completed")

    def __init__(self, index: int, ctx, audit: bool) -> None:
        self.index = index
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_shard_main, args=(child, audit),
            name=f"repro-serve-shard-{index}", daemon=True,
        )
        self.proc.start()
        child.close()  # the parent keeps only its own end
        self.lease: tuple | None = None  # (key, spec) while working
        self.completed = 0

    @property
    def busy(self) -> bool:
        return self.lease is not None

    def assign(self, key: str, spec) -> None:
        self.lease = (key, spec)
        self.conn.send(("run", spec))

    def close(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.conn.close()
        self.proc.join(timeout=5)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=5)


class RemoteWorker:
    """Parent-side handle for one connected ``repro worker`` daemon."""

    __slots__ = ("name", "writer", "lease", "lease_started", "last_seen",
                 "completed")

    def __init__(self, name: str, writer) -> None:
        self.name = name
        self.writer = writer
        self.lease: tuple | None = None  # (key, spec) while working
        self.lease_started: float | None = None
        self.last_seen = time.monotonic()
        self.completed = 0

    @property
    def busy(self) -> bool:
        return self.lease is not None

    def send(self, obj: dict) -> None:
        self.writer.write(frame(obj))

    def assign(self, key: str, spec) -> None:
        self.lease = (key, spec)
        self.lease_started = time.monotonic()
        self.send({"op": "lease", "key": key, "spec": spec.canonical()})


class LeaseBroker:
    """A mixed fleet of shards and remote workers on one asyncio loop.

    ``on_result(key, spec, outcome)`` is called on the loop for every
    finished lease, where ``outcome`` is one of::

        ("ok", summary_body, wall_s)
        ("err", "<repr of the worker exception>")
        ("died", "<member death description>")

    ``on_fleet_change()`` (optional) is called whenever capacity
    changes — a worker attaches, detaches, or frees a slot — so the
    scheduler can wake without polling.
    """

    def __init__(self, width: int, on_result,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
                 on_fleet_change=None, audit: bool = False) -> None:
        self.width = max(0, int(width))
        self.on_result = on_result
        self.heartbeat_s = heartbeat_s
        self.lease_timeout_s = lease_timeout_s
        self.on_fleet_change = on_fleet_change
        self.audit = audit
        self._ctx = _mp_context()
        self._shards: dict[int, _Shard] = {}
        self._workers: dict[str, RemoteWorker] = {}
        self._indices = iter(range(10 ** 9))
        self._worker_ids = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._heartbeat_task: asyncio.Task | None = None
        self._inline: asyncio.Task | None = None  # the width-0 slot's run
        self.respawns = 0
        self.worker_deaths = 0
        self._closing = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        for _ in range(self.width):
            self._spawn()
        if self.heartbeat_s > 0:
            self._heartbeat_task = self._loop.create_task(
                self._heartbeat_loop()
            )

    def _spawn(self) -> _Shard:
        shard = _Shard(next(self._indices), self._ctx, self.audit)
        self._shards[shard.index] = shard
        self._loop.add_reader(
            shard.conn.fileno(), self._on_readable, shard
        )
        return shard

    def close(self) -> None:
        self._closing = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        for worker in list(self._workers.values()):
            self._detach(worker, "service shutting down", notify=False,
                         stop=True)
        for shard in list(self._shards.values()):
            try:
                self._loop.remove_reader(shard.conn.fileno())
            except (ValueError, OSError):
                pass
            shard.close()
        self._shards.clear()

    def _fleet_changed(self) -> None:
        if self.on_fleet_change is not None:
            self.on_fleet_change()

    # -- dispatch -------------------------------------------------------
    @property
    def workers_connected(self) -> int:
        return len(self._workers)

    @property
    def free_slots(self) -> int:
        if self.width == 0 and not self._workers:
            return 1 if self._inline is None else 0  # no fleet: inline slot
        free = sum(1 for s in self._shards.values() if not s.busy)
        free += sum(1 for w in self._workers.values() if not w.busy)
        return free

    @property
    def busy_leases(self) -> list:
        out = [s.lease for s in self._shards.values() if s.busy]
        out += [w.lease for w in self._workers.values() if w.busy]
        return out

    def dispatch(self, key: str, spec) -> bool:
        """Lease ``spec`` to a free member; False when all are busy."""
        for shard in self._shards.values():
            if not shard.busy:
                try:
                    shard.assign(key, spec)
                except (BrokenPipeError, OSError):
                    self._reap(shard, notify=False)
                    continue
                return True
        for worker in list(self._workers.values()):
            if not worker.busy:
                try:
                    worker.assign(key, spec)
                except (ConnectionError, OSError, RuntimeError):
                    self._detach(worker, "send failed", notify=False)
                    continue
                return True
        if self.width == 0 and not self._workers and self._inline is None:
            self._inline = self._loop.create_task(self._run_inline(key, spec))
            return True
        return False

    async def _run_inline(self, key: str, spec) -> None:
        done = self._loop.create_future()
        threading.Thread(
            target=self._inline_lease, args=(spec, done),
            name="repro-inline-lease", daemon=True,
        ).start()
        outcome = await done
        self._inline = None
        self.on_result(key, spec, outcome)

    def _inline_lease(self, spec, done: asyncio.Future) -> None:
        """The inline slot's thread: run, then post the outcome."""
        try:
            body, wall_s = runner._execute(spec, self.audit)
            outcome = ("ok", body, wall_s)
        except Exception as exc:  # noqa: BLE001
            outcome = ("err", repr(exc))

        def post() -> None:
            if not done.done():  # not abandoned by a cancelled slot
                done.set_result(outcome)

        try:
            self._loop.call_soon_threadsafe(post)
        except RuntimeError:
            pass  # the loop closed: nobody is waiting for this lease

    # -- shard completion and death ------------------------------------
    def _on_readable(self, shard: _Shard) -> None:
        try:
            reply = shard.conn.recv()
        except (EOFError, OSError):
            self._reap(shard, notify=True)
            return
        lease, shard.lease = shard.lease, None
        if lease is None:
            return  # stray message (e.g. reply raced a close)
        shard.completed += 1
        key, spec = lease
        self.on_result(key, spec, tuple(reply))

    def _reap(self, shard: _Shard, notify: bool) -> None:
        """A shard died: release its lease and spawn a replacement."""
        try:
            self._loop.remove_reader(shard.conn.fileno())
        except (ValueError, OSError):
            pass
        try:
            shard.conn.close()
        except OSError:
            pass
        self._shards.pop(shard.index, None)
        lease, shard.lease = shard.lease, None
        exitcode = shard.proc.exitcode
        if shard.proc.is_alive():
            shard.proc.terminate()
        shard.proc.join(timeout=5)
        if not self._closing:
            self.respawns += 1
            self._spawn()
        if notify and lease is not None:
            key, spec = lease
            self.on_result(
                key, spec,
                ("died", f"shard {shard.index} died (exit {exitcode})"),
            )

    # -- remote workers -------------------------------------------------
    async def serve_worker(self, name: str, reader, writer) -> str:
        """Register a remote worker and pump its frames until it leaves.

        Called by the HTTP layer after the token handshake; returns a
        human-readable reason once the worker is gone.  The worker's
        lease (if any) is released via ``on_result`` with ``died``.
        """
        base = name or "worker"
        wname = base
        while wname in self._workers:
            wname = f"{base}~{next(self._worker_ids)}"
        worker = RemoteWorker(wname, writer)
        self._workers[wname] = worker
        self._fleet_changed()
        reason = "disconnected"
        try:
            worker.send({
                "op": "welcome", "name": wname,
                "heartbeat_s": self.heartbeat_s,
            })
            await writer.drain()
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = json.loads(line)
                except ValueError:
                    reason = "protocol error (undecodable frame)"
                    break
                worker.last_seen = time.monotonic()
                op = message.get("op")
                if op == "result":
                    self._finish_lease(worker, message)
                # "pong" just refreshes last_seen; unknown ops are
                # ignored for forward compatibility.
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            self._detach(worker, reason)
        return reason

    def _finish_lease(self, worker: RemoteWorker, message: dict) -> None:
        lease, worker.lease = worker.lease, None
        worker.lease_started = None
        if lease is None:
            return  # stray result (raced a timeout release)
        key, spec = lease
        answered = message.get("key")
        body = message.get("body")
        if answered not in (None, key):
            outcome = ("err",
                       f"worker {worker.name} answered for key "
                       f"{answered!r}, expected {key!r}")
        elif message.get("status") == "ok" and isinstance(body, dict):
            worker.completed += 1
            outcome = ("ok", body, float(message.get("wall_s") or 0.0))
        else:
            outcome = ("err", str(message.get("error", "worker error")))
        self.on_result(key, spec, outcome)
        self._fleet_changed()  # a slot freed

    def _detach(self, worker: RemoteWorker, reason: str,
                notify: bool = True, stop: bool = False) -> None:
        if self._workers.get(worker.name) is not worker:
            return  # already detached (e.g. heartbeat raced EOF)
        del self._workers[worker.name]
        if stop:
            try:
                worker.send({"op": "stop"})
            except (ConnectionError, OSError, RuntimeError):
                pass
        try:
            worker.writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass
        lease, worker.lease = worker.lease, None
        if lease is not None and notify:
            self.worker_deaths += 1
            key, spec = lease
            self.on_result(
                key, spec, ("died", f"worker {worker.name} {reason}"),
            )
        self._fleet_changed()

    async def _heartbeat_loop(self) -> None:
        """Ping the remote fleet; cull the silent and the wedged."""
        while True:
            await asyncio.sleep(self.heartbeat_s)
            now = time.monotonic()
            for worker in list(self._workers.values()):
                silent = now - worker.last_seen
                if silent > MISSED_HEARTBEATS * self.heartbeat_s:
                    self._detach(
                        worker,
                        f"missed heartbeats ({silent:.1f}s silent)",
                    )
                    continue
                if (worker.busy and self.lease_timeout_s > 0
                        and now - worker.lease_started
                        > self.lease_timeout_s):
                    self._detach(
                        worker,
                        f"lease timed out after "
                        f"{self.lease_timeout_s:.0f}s",
                    )
                    continue
                try:
                    worker.send({"op": "ping"})
                except (ConnectionError, OSError, RuntimeError):
                    self._detach(worker, "ping failed")

    # -- observability --------------------------------------------------
    def fleet(self) -> list:
        """Per-member state for ``/v1/metrics`` and ``/v1/workers``."""
        now = time.monotonic()
        out = []
        for shard in self._shards.values():
            out.append({
                "name": f"shard-{shard.index}",
                "kind": "local",
                "pid": shard.proc.pid,
                "busy": shard.busy,
                "key": shard.lease[0] if shard.lease else None,
                "completed": shard.completed,
            })
        for worker in self._workers.values():
            out.append({
                "name": worker.name,
                "kind": "remote",
                "busy": worker.busy,
                "key": worker.lease[0] if worker.lease else None,
                "lease_age_s": (
                    round(now - worker.lease_started, 3)
                    if worker.lease_started is not None else None
                ),
                "idle_s": round(now - worker.last_seen, 3),
                "completed": worker.completed,
            })
        return out
