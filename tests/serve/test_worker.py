"""Remote TCP workers end to end: equivalence, auth, death, heartbeat.

A real ``WorkerDaemon`` (on a background thread) dials the
background-thread service over the same wire ``repro worker`` uses; a
scripted *fake* worker over a raw socket plays the misbehaving cases a
well-written daemon never exhibits (vanishing mid-lease, ignoring
pings).
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.campaign import CampaignRunner, RunSpec, cache
from repro.serve.client import ServeClient
from repro.serve.server import start_in_thread
from repro.serve.service import ServiceConfig
from repro.serve.worker import WorkerAuthError, WorkerDaemon

SCALE = 80
FP = "test-fp"


def spec(seed: int, policy: str = "dbi") -> RunSpec:
    return RunSpec(benchmark="GUPS", system="ddr4-server", policy=policy,
                   accesses_per_core=SCALE, seed=seed)


def make_config(tmp_path, **kw) -> ServiceConfig:
    kw.setdefault("store_root", tmp_path / "store")
    kw.setdefault("shards", 0)
    kw.setdefault("fingerprint", FP)
    kw.setdefault("backoff_base_s", 0.01)
    return ServiceConfig(**kw)


class WorkerThread:
    """A WorkerDaemon's blocking ``run()`` on a background thread."""

    def __init__(self, address: str, **kw) -> None:
        kw.setdefault("reconnect_delay_s", 0.05)
        self.daemon = WorkerDaemon(address, **kw)
        self.error: BaseException | None = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self) -> None:
        try:
            self.daemon.run()
        except BaseException as exc:  # noqa: BLE001 — surfaced in the test
            self.error = exc

    def start(self) -> "WorkerThread":
        self._thread.start()
        return self

    def join(self, timeout: float = 30.0) -> None:
        self.daemon.request_stop()
        self._thread.join(timeout)


def wait_for(predicate, timeout: float = 30.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


class FakeWorker:
    """A scripted worker over a raw socket: full control, no goodwill."""

    def __init__(self, address: str, token: str | None = None,
                 name: str = "fake") -> None:
        host, _, port = address.rpartition(":")
        self.sock = socket.create_connection((host, int(port)), timeout=30)
        self.file = self.sock.makefile("rb")
        body = json.dumps(
            {"token": token, "name": name, "pid": 0}
        ).encode()
        self.sock.sendall(
            b"POST /v1/workers HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        status = self.file.readline().split()[1]
        while self.file.readline() not in (b"\r\n", b"\n", b""):
            pass  # drain response headers
        assert status == b"200", f"handshake got {status!r}"

    def read_frame(self, want_op: str | None = None) -> dict:
        """Next frame, optionally skipping until ``want_op`` arrives."""
        while True:
            line = self.file.readline()
            assert line, "server closed the stream"
            message = json.loads(line)
            if want_op is None or message.get("op") == want_op:
                return message

    def send(self, obj: dict) -> None:
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def vanish(self) -> None:
        """Die without ceremony — no result, no close handshake.

        The reader file holds its own reference to the socket, so both
        must close for the connection to end (EOF at the broker).
        """
        self.file.close()
        self.sock.close()


@pytest.fixture
def tcp_handle(tmp_path):
    # Heartbeats too slow to matter: only EOF can release a lease here.
    handle = start_in_thread(make_config(tmp_path, heartbeat_s=600),
                             host="127.0.0.1")
    try:
        yield handle
    finally:
        handle.stop()


class TestRemoteEquivalence:
    """The acceptance criterion: rows computed on a remote worker are
    byte-identical to a serial local campaign's."""

    def test_remote_rows_match_local(self, tmp_path, monkeypatch):
        specs = [spec(s) for s in range(3)] + [spec(0, policy="mil")]

        local_dir = tmp_path / "local"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(local_dir))
        local = CampaignRunner(jobs=1, fingerprint=FP).run(specs)
        assert len(local) == len(specs)
        monkeypatch.delenv("REPRO_CACHE_DIR")

        handle = start_in_thread(make_config(tmp_path), host="127.0.0.1")
        worker = WorkerThread(handle.address, name="eq-worker").start()
        try:
            client = ServeClient(handle.address)
            wait_for(lambda: client.health()["workers"] == 1,
                     what="worker attach")
            job = client.submit_specs(specs, namespace="eq")
            final = client.wait(job["id"])
            assert final["state"] == "done"
            assert final["counters"]["executed"] == len(specs)
            rows = client.results(job["id"])
            fleet = client.workers()["fleet"]
        finally:
            handle.stop()
            worker.join()
        assert worker.error is None

        # Every execution ran on the remote worker (shards=0, and the
        # inline fallback is disabled while a worker is attached).
        assert len(fleet) == 1 and fleet[0]["kind"] == "remote"
        assert fleet[0]["completed"] == len(specs)
        assert worker.daemon.completed == len(specs)

        keys = [cache.cache_key(s, FP) for s in specs]
        assert [r["cache_key"] for r in rows] == keys
        served_runs = tmp_path / "store" / "runs"
        for key in keys:
            a = json.loads((local_dir / f"{key}.json").read_text())
            b = json.loads((served_runs / f"{key}.json").read_text())
            assert json.dumps(a["summary"], sort_keys=True) == \
                json.dumps(b["summary"], sort_keys=True)
            assert a["fingerprint"] == b["fingerprint"]
            assert a["spec"] == b["spec"]
            row = rows[keys.index(key)]
            assert row["summary"] == a["summary"]


class TestWorkerAuth:
    def test_bad_token_is_rejected(self, tmp_path):
        handle = start_in_thread(
            make_config(tmp_path, worker_token="sekrit"),
            host="127.0.0.1",
        )
        try:
            daemon = WorkerDaemon(handle.address, token="wrong",
                                  max_connects=1)
            with pytest.raises(WorkerAuthError):
                daemon.run()
            client = ServeClient(handle.address)
            assert client.health()["workers"] == 0
        finally:
            handle.stop()

    def test_good_token_attaches(self, tmp_path):
        handle = start_in_thread(
            make_config(tmp_path, worker_token="sekrit"),
            host="127.0.0.1",
        )
        worker = WorkerThread(handle.address, token="sekrit").start()
        try:
            client = ServeClient(handle.address)
            wait_for(lambda: client.health()["workers"] == 1,
                     what="worker attach")
        finally:
            handle.stop()
            worker.join()
        assert worker.error is None


class TestWorkerDeath:
    def test_vanished_worker_releases_lease(self, tcp_handle):
        """A worker SIGKILLed mid-lease surfaces as EOF; its key must
        go back to the queue and complete elsewhere (here: the inline
        fallback, once the fleet is empty again)."""
        client = ServeClient(tcp_handle.address)
        fake = FakeWorker(tcp_handle.address)
        fake.read_frame("welcome")
        wait_for(lambda: client.health()["workers"] == 1,
                 what="fake worker attach")

        job = client.submit_specs([spec(31)])
        lease = fake.read_frame("lease")
        assert lease["key"] == cache.cache_key(spec(31), FP)
        fake.vanish()  # mid-lease, no result

        final = client.wait(job["id"])
        assert final["state"] == "done"
        assert final["counters"]["retries"] >= 1
        stats = client.stats()
        assert stats["worker_deaths"] == 1
        assert stats["service"]["died"] == 1
        assert stats["workers"] == 0

    def test_wrong_key_result_is_an_error_not_a_crash(self, tcp_handle):
        client = ServeClient(tcp_handle.address)
        fake = FakeWorker(tcp_handle.address)
        fake.read_frame("welcome")
        wait_for(lambda: client.health()["workers"] == 1,
                 what="fake worker attach")
        job = client.submit_specs([spec(32)])
        fake.read_frame("lease")
        fake.send({"op": "result", "key": "not-the-key",
                   "status": "ok", "body": {}})
        # The mismatched answer is charged as an error; the retry goes
        # back to the fake worker (still the only capacity), which this
        # time answers nothing and vanishes — inline finishes the key.
        fake.read_frame("lease")
        fake.vanish()
        final = client.wait(job["id"])
        assert final["state"] == "done"
        assert final["counters"]["retries"] >= 2


class TestHeartbeat:
    def test_silent_worker_is_detached(self, tmp_path):
        handle = start_in_thread(
            make_config(tmp_path, heartbeat_s=0.05), host="127.0.0.1"
        )
        try:
            client = ServeClient(handle.address)
            fake = FakeWorker(handle.address)
            fake.read_frame("welcome")
            wait_for(lambda: client.health()["workers"] == 1,
                     what="fake worker attach")
            # The fake never pongs: three missed beats and it's gone.
            wait_for(lambda: client.health()["workers"] == 0,
                     what="silent worker detach")
        finally:
            handle.stop()

    def test_live_worker_survives_heartbeats(self, tmp_path):
        handle = start_in_thread(
            make_config(tmp_path, heartbeat_s=0.05), host="127.0.0.1"
        )
        worker = WorkerThread(handle.address).start()
        try:
            client = ServeClient(handle.address)
            wait_for(lambda: client.health()["workers"] == 1,
                     what="worker attach")
            time.sleep(0.5)  # ten heartbeat intervals
            assert client.health()["workers"] == 1
            job = client.submit_specs([spec(33)])
            assert client.wait(job["id"])["state"] == "done"
        finally:
            handle.stop()
            worker.join()
        assert worker.error is None


class TestWorkerStop:
    def test_idle_worker_stops_promptly(self, tmp_path):
        """``request_stop()`` ends an attached, idle daemon at once: it
        does not wait for the next frame (a ping every 10 s here)."""
        handle = start_in_thread(make_config(tmp_path), host="127.0.0.1")
        worker = WorkerThread(handle.address).start()
        try:
            client = ServeClient(handle.address)
            wait_for(lambda: client.health()["workers"] == 1,
                     what="worker attach")
            started = time.monotonic()
            worker.join(timeout=5)
            elapsed = time.monotonic() - started
            assert not worker._thread.is_alive()
            assert elapsed < 1.0, f"idle worker took {elapsed:.2f}s"
        finally:
            handle.stop()
        assert worker.error is None
        assert worker.daemon.connects == 1
