"""The lease broker: one fleet of members that all speak frames.

Every fleet member is a :class:`Member` holding **at most one lease**,
so lease accounting is exact: whatever a dead member was holding is
precisely ``member.lease``.  Members of both kinds share one path for
leases, results (key-checked), heartbeats and death:

* **Local shards** are forked processes (``member.proc``) running
  :func:`repro.serve.worker.serve_frames`, the loop a ``repro worker``
  daemon runs, on one end of a ``socket.socketpair()``.  The broker
  attaches the other end through :meth:`LeaseBroker.serve_worker`, as
  it does a remote daemon after its HTTP handshake.  A shard killed
  mid-lease (SIGKILL included) surfaces as EOF; it is reaped and a
  replacement spawned.  Shards ignore SIGINT: Ctrl-C belongs to the
  broker's process, whose ``close()`` kills them.
* **Remote workers** are ``repro worker`` daemons that dialed the
  service (``POST /v1/workers``, see :mod:`repro.serve.worker`).  A
  dropped connection surfaces as EOF; a lease older than
  ``lease_timeout_s`` (remote only) detaches the worker.

The broker pings every member each ``heartbeat_s`` and detaches one
silent for three intervals (a vanished host, a wedged shard).  An
orphaned lease is reported to ``on_result`` as ``("died", reason)``,
which re-queues the key: one charged retry, never a stranded spec.

With ``width=0`` and no remote workers attached, the broker has one
inline slot: it executes one lease at a time on a daemon thread, in
this process — how a serial ``repro campaign`` runs.  The thread is not
the loop's executor, which ``asyncio.run`` joins at shutdown: a Ctrl-C
does not wait for the running spec.  The moment a remote worker
attaches, inline execution stops and the fleet does the work.

Every lease frame carries the broker's ``audit`` flag, and the inline
slot honours it too.  Members look :func:`repro.campaign.runner._execute`
up at call time, so a test's patch (``tests/fault_executor.py``)
reaches every one of them; shards forked after the patch inherit it.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import signal
import socket
import threading
import time

from ..campaign import runner
from .protocol import frame
from .worker import serve_frames

__all__ = ["LeaseBroker", "Member"]

DEFAULT_SHARDS = 2
DEFAULT_HEARTBEAT_S = 10.0
DEFAULT_LEASE_TIMEOUT_S = 600.0
# A member silent for this many heartbeat intervals is presumed gone.
MISSED_HEARTBEATS = 3


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context("spawn")


def _shard_main(sock: socket.socket, parent_end: socket.socket) -> None:
    """A shard process: the frame loop on its end of the socketpair."""
    # Forked from the broker's event loop: drop its signal wake-up fd
    # (a SIGTERM would otherwise be delivered to the parent's loop)
    # and leave Ctrl-C to the parent.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()  # or the parent's exit would never read as EOF
    serve_frames(sock.makefile("rb"), sock.sendall)


def _reap(proc) -> int | None:
    """Kill ``proc`` if it still runs; returns its exit code.

    SIGKILL, because a shard holds no state worth a clean exit and a
    stopped or wedged one would sit on a SIGTERM.
    """
    if proc.is_alive():
        proc.kill()
    proc.join(timeout=5)
    return proc.exitcode


class Member:
    """Parent-side handle for one fleet member: a shard (``proc`` set)
    or a remote ``repro worker`` daemon."""

    __slots__ = ("name", "writer", "proc", "lease", "lease_started",
                 "last_seen", "completed")

    def __init__(self, name: str, writer, proc=None) -> None:
        self.name = name
        self.writer = writer
        self.proc = proc
        self.lease: tuple | None = None  # (key, spec) while working
        self.lease_started: float | None = None
        self.last_seen = time.monotonic()
        self.completed = 0

    @property
    def busy(self) -> bool:
        return self.lease is not None

    def send(self, obj: dict) -> None:
        self.writer.write(frame(obj))

    def assign(self, key: str, spec, audit: bool) -> None:
        self.lease = (key, spec)
        self.lease_started = time.monotonic()
        self.send({"op": "lease", "key": key, "spec": spec.canonical(),
                   "audit": audit})


class LeaseBroker:
    """A fleet of shards and remote workers on one asyncio loop.

    ``on_result(key, spec, outcome)`` is called on the loop for every
    finished lease, where ``outcome`` is one of::

        ("ok", summary_body, wall_s)
        ("err", "<repr of the worker exception>")
        ("died", "<member death description>")

    ``on_fleet_change()`` (optional) is called whenever capacity
    changes — a member attaches, detaches, or frees a slot — so the
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
        self._members: dict[str, Member] = {}
        self._shard_tasks: set = set()  # one per shard, attach to exit
        self._indices = itertools.count()
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

    def _spawn(self) -> None:
        """Fork a shard and attach its end of a fresh socketpair."""
        index = next(self._indices)
        parent_end, child_end = socket.socketpair()
        proc = self._ctx.Process(
            target=_shard_main, args=(child_end, parent_end),
            name=f"repro-serve-shard-{index}", daemon=True,
        )
        proc.start()
        child_end.close()  # the parent keeps only its own end
        task = self._loop.create_task(
            self._attach_shard(f"shard-{index}", parent_end, proc)
        )
        self._shard_tasks.add(task)
        task.add_done_callback(self._shard_tasks.discard)

    async def _attach_shard(self, name: str, sock, proc) -> None:
        try:
            reader, writer = await asyncio.open_connection(sock=sock)
        except BaseException:  # close() cancelled it before it attached
            sock.close()
            _reap(proc)
            raise
        await self.serve_worker(name, reader, writer, proc)

    def close(self) -> None:
        """Send every member ``stop``, then kill the shards: a shard's
        running lease is abandoned, not waited for."""
        self._closing = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        for task in list(self._shard_tasks):
            task.cancel()
        for member in list(self._members.values()):
            try:
                member.send({"op": "stop"})
            except (ConnectionError, OSError, RuntimeError):
                pass
            self._detach(member, "service shutting down", notify=False)

    def _fleet_changed(self) -> None:
        if self.on_fleet_change is not None:
            self.on_fleet_change()

    # -- dispatch -------------------------------------------------------
    @property
    def workers_connected(self) -> int:
        return sum(1 for m in self._members.values() if m.proc is None)

    @property
    def free_slots(self) -> int:
        if self.width == 0 and not self._members:
            return 1 if self._inline is None else 0  # no fleet: inline slot
        return sum(1 for m in self._members.values() if not m.busy)

    @property
    def busy_leases(self) -> list:
        return [m.lease for m in self._members.values() if m.busy]

    def dispatch(self, key: str, spec) -> bool:
        """Lease ``spec`` to a free member; False when all are busy."""
        for member in list(self._members.values()):
            if not member.busy:
                try:
                    member.assign(key, spec, self.audit)
                except (ConnectionError, OSError, RuntimeError):
                    self._detach(member, "send failed", notify=False)
                    continue
                return True
        if self.width == 0 and not self._members and self._inline is None:
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

    # -- members --------------------------------------------------------
    async def serve_worker(self, name: str, reader, writer,
                           proc=None) -> str:
        """Register a member and pump its frames until it leaves.

        The HTTP layer calls this after a remote worker's token
        handshake, and :meth:`_spawn` for every shard (with its
        ``proc``).  Returns a human-readable reason once the member is
        gone; its lease (if any) is released via ``on_result`` with
        ``died``.
        """
        base = name or "worker"
        mname = base
        while mname in self._members:
            mname = f"{base}~{next(self._worker_ids)}"
        member = Member(mname, writer, proc)
        self._members[mname] = member
        self._fleet_changed()
        reason = "disconnected"
        try:
            member.send({
                "op": "welcome", "name": mname,
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
                member.last_seen = time.monotonic()
                if message.get("op") == "result":
                    self._finish_lease(member, message)
                # "pong" just refreshes last_seen; unknown ops are
                # ignored for forward compatibility.
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            self._detach(member, reason)
        return reason

    def _finish_lease(self, member: Member, message: dict) -> None:
        lease, member.lease = member.lease, None
        member.lease_started = None
        if lease is None:
            return  # stray result (raced a timeout release)
        key, spec = lease
        answered = message.get("key")
        body = message.get("body")
        if answered not in (None, key):
            outcome = ("err",
                       f"worker {member.name} answered for key "
                       f"{answered!r}, expected {key!r}")
        elif message.get("status") == "ok" and isinstance(body, dict):
            member.completed += 1
            outcome = ("ok", body, float(message.get("wall_s") or 0.0))
        else:
            outcome = ("err", str(message.get("error", "worker error")))
        self.on_result(key, spec, outcome)
        self._fleet_changed()  # a slot freed

    def _detach(self, member: Member, reason: str,
                notify: bool = True) -> None:
        """Drop a member; a shard is reaped and, unless closing, respawned."""
        if self._members.get(member.name) is not member:
            return  # already detached (e.g. heartbeat raced EOF)
        del self._members[member.name]
        try:
            member.writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass
        lease, member.lease = member.lease, None
        if member.proc is not None:
            death = f"{member.name} died (exit {_reap(member.proc)})"
            if not self._closing:
                self.respawns += 1
                self._spawn()
        else:
            death = f"worker {member.name} {reason}"
            if lease is not None and notify:
                self.worker_deaths += 1
        if lease is not None and notify:
            key, spec = lease
            self.on_result(key, spec, ("died", death))
        self._fleet_changed()

    async def _heartbeat_loop(self) -> None:
        """Ping the fleet; cull the silent and the wedged."""
        while True:
            await asyncio.sleep(self.heartbeat_s)
            now = time.monotonic()
            for member in list(self._members.values()):
                silent = now - member.last_seen
                if silent > MISSED_HEARTBEATS * self.heartbeat_s:
                    self._detach(
                        member,
                        f"missed heartbeats ({silent:.1f}s silent)",
                    )
                    continue
                if (member.proc is None and member.busy
                        and self.lease_timeout_s > 0
                        and now - member.lease_started
                        > self.lease_timeout_s):
                    self._detach(
                        member,
                        f"lease timed out after "
                        f"{self.lease_timeout_s:.0f}s",
                    )
                    continue
                try:
                    member.send({"op": "ping"})
                except (ConnectionError, OSError, RuntimeError):
                    self._detach(member, "ping failed")

    # -- observability --------------------------------------------------
    def fleet(self) -> list:
        """Per-member state for ``/v1/metrics`` and ``/v1/workers``."""
        now = time.monotonic()
        out = []
        for member in self._members.values():
            entry = {
                "name": member.name,
                "kind": "remote" if member.proc is None else "local",
                "busy": member.busy,
                "key": member.lease[0] if member.lease else None,
                "completed": member.completed,
            }
            if member.proc is not None:
                entry["pid"] = member.proc.pid
            else:
                entry["lease_age_s"] = (
                    round(now - member.lease_started, 3)
                    if member.lease_started is not None else None
                )
                entry["idle_s"] = round(now - member.last_seen, 3)
            out.append(entry)
        return out
