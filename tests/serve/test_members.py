"""One lease protocol: every fleet member speaks frames.

A forked shard and a ``repro worker`` daemon run the same frame loop
(:func:`repro.serve.worker.serve_frames`), and the broker attaches both
through :meth:`~repro.serve.shards.LeaseBroker.serve_worker`.  These
tests drive each side over a bare ``socket.socketpair()``: the lease
frame carries ``audit``, the loop honours it, and no shard outlives the
broker that forked it.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.audit import ProtocolAuditor, Violation
from repro.campaign import CampaignRunner, RunSpec
from repro.serve.client import ServeClient, ServeError
from repro.serve.service import CampaignService, ServiceConfig
from repro.serve.shards import LeaseBroker
from repro.serve.worker import serve_frames

FP = "test-fp"
SRC = Path(__file__).resolve().parent.parent.parent / "src"
SPEC = RunSpec(benchmark="GUPS", system="ddr4-server", policy="dbi",
               accesses_per_core=80, seed=3)


def test_lease_frame_carries_the_audit_flag():
    """A member attached to an auditing broker is told to audit."""

    async def main():
        broker = LeaseBroker(0, lambda *outcome: None, heartbeat_s=0,
                             audit=True)
        broker.start()
        ours, theirs = socket.socketpair()
        reader, writer = await asyncio.open_connection(sock=ours)
        attached = asyncio.get_running_loop().create_task(
            broker.serve_worker("probe", reader, writer)
        )
        while broker.workers_connected == 0:
            await asyncio.sleep(0.01)
        assert broker.dispatch("the-key", SPEC)
        theirs.settimeout(10)
        rfile = theirs.makefile("rb")
        frames = []
        while not frames or frames[-1]["op"] != "lease":
            line = await asyncio.to_thread(rfile.readline)
            frames.append(json.loads(line))
        broker.close()
        await asyncio.wait_for(attached, 10)
        rfile.close()
        theirs.close()
        return frames

    frames = asyncio.run(main())
    assert [f["op"] for f in frames] == ["welcome", "lease"]
    lease = frames[-1]
    assert lease["audit"] is True
    assert lease["key"] == "the-key"
    assert lease["spec"] == SPEC.canonical()


def test_frame_loop_audits_an_audited_lease(tmp_path, monkeypatch):
    """The member side honours ``audit``: a dirty audit is an ``err``
    result naming the violation, and the loop ends at EOF."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runs"))
    fake = Violation(constraint="tFAW", cycle=47, rank=0,
                     message="injected by the test")
    monkeypatch.setattr(ProtocolAuditor, "audit",
                        lambda self, commands, transactions=None: [fake])
    ours, theirs = socket.socketpair()
    for audit in (True, False):
        ours.sendall((json.dumps({
            "op": "lease", "key": f"k-{audit}", "audit": audit,
            "spec": SPEC.canonical(),
        }) + "\n").encode())
    ours.shutdown(socket.SHUT_WR)
    with theirs, theirs.makefile("rb") as rfile:
        assert serve_frames(rfile, theirs.sendall) is False  # EOF
    with ours, ours.makefile("rb") as replies:
        audited, plain = (json.loads(line) for line in replies)
    assert audited["op"] == "result" and audited["key"] == "k-True"
    assert audited["status"] == "err"
    assert audited["error"].startswith("ProtocolViolationError(")
    assert plain["key"] == "k-False" and plain["status"] == "ok"


async def until(predicate, what: str) -> None:
    deadline = time.monotonic() + 30
    while not predicate():
        assert time.monotonic() < deadline, f"timed out: {what}"
        await asyncio.sleep(0.01)


def test_silent_shard_is_detached_and_respawned():
    """Shards answer pings from their reader thread; a stopped one is
    silent, so three missed heartbeats detach, reap and respawn it."""

    async def main():
        broker = LeaseBroker(1, lambda *outcome: None, heartbeat_s=0.05)
        broker.start()
        try:
            await until(lambda: broker.free_slots == 1, "shard attach")
            await asyncio.sleep(0.5)  # ten intervals, all answered
            assert broker.respawns == 0
            first = broker.fleet()[0]
            os.kill(first["pid"], signal.SIGSTOP)
            await until(lambda: broker.respawns == 1, "silent shard cull")
            await until(lambda: broker.free_slots == 1, "respawned attach")
            second = broker.fleet()[0]
        finally:
            broker.close()
        return first, second

    first, second = asyncio.run(main())
    assert (first["name"], second["name"]) == ("shard-0", "shard-1")
    assert first["pid"] != second["pid"]
    assert multiprocessing.active_children() == []


def test_close_does_not_wait_for_a_running_lease(monkeypatch):
    """Closing the broker kills a busy shard instead of letting its
    lease run out."""
    from repro.campaign import runner

    monkeypatch.setattr(runner, "_execute",
                        lambda spec, audit=False: time.sleep(60))
    outcomes = []

    async def main():
        broker = LeaseBroker(1, lambda *outcome: outcomes.append(outcome),
                             heartbeat_s=0)
        broker.start()
        await until(lambda: broker.free_slots == 1, "shard attach")
        assert broker.dispatch("the-key", SPEC)
        await asyncio.sleep(0.2)  # the shard is inside the lease
        started = time.monotonic()
        broker.close()
        return time.monotonic() - started

    elapsed = asyncio.run(main())
    assert elapsed < 2.0, f"close() waited {elapsed:.2f}s"
    assert outcomes == []  # a closing broker reports no death
    assert multiprocessing.active_children() == []


def test_sigterm_to_a_shard_stays_the_shards(tmp_path):
    """``repro serve`` installs its signal handlers before it forks its
    shards, so a shard inherits the loop's signal wake-up fd: unless the
    shard drops it, a SIGTERM sent to the shard stops the service.  The
    shard must die alone, be respawned, and the service keep serving."""
    sock = tmp_path / "s.sock"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(sock),
         "--shards", "1", "--store", str(tmp_path / "store")],
        env=dict(os.environ, PYTHONPATH=str(SRC),
                 REPRO_CACHE_DIR=str(tmp_path / "runs")),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    client = ServeClient(f"unix:{sock}", timeout=10.0)

    def shard_pids() -> list:
        try:
            fleet = client.metrics()["workers"]["fleet"]
        except (OSError, ServeError):
            return []
        return [m["pid"] for m in fleet if m["kind"] == "local"]

    def wait(predicate, what: str):
        deadline = time.monotonic() + 60
        while not (value := predicate()):
            assert proc.poll() is None, f"service exited: {what}"
            assert time.monotonic() < deadline, f"timed out: {what}"
            time.sleep(0.02)
        return value

    try:
        [first] = wait(shard_pids, "shard attach")
        os.kill(first, signal.SIGTERM)
        [second] = wait(lambda: [p for p in shard_pids() if p != first],
                        "shard respawn")
        assert client.stats()["respawns"] == 1
        assert client.health()["ok"] is True
    finally:
        proc.terminate()
        _, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    assert err.count("shutting down") == 1  # ours, not the shard's


class TestNoMemberOutlivesItsBroker:
    def test_parallel_campaign(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runs"))
        specs = [RunSpec(benchmark="GUPS", policy="dbi",
                         accesses_per_core=80, seed=s) for s in range(3)]
        runner = CampaignRunner(jobs=2, fingerprint=FP)
        assert len(runner.run(specs)) == len(specs)
        assert multiprocessing.active_children() == []

    def test_service_with_shards(self, tmp_path):
        config = ServiceConfig(store_root=tmp_path / "store", shards=2,
                               fingerprint=FP)

        async def main():
            service = CampaignService(config)
            await service.start()
            try:
                while service.pool.free_slots < 2:
                    await asyncio.sleep(0.01)
                fleet = service.pool.fleet()
            finally:
                await service.stop()
            return fleet

        fleet = asyncio.run(main())
        assert [m["kind"] for m in fleet] == ["local", "local"]
        assert all(m["pid"] for m in fleet)
        assert multiprocessing.active_children() == []
