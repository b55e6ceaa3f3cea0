"""CampaignService in-process: scheduling, retries, shard death, sweep.

These tests drive the async service directly under ``asyncio.run`` —
no HTTP — with ``shards=0`` (inline execution) unless a test is
explicitly about worker processes.  The service pins
``REPRO_CACHE_DIR`` while running and restores it on ``stop()``, so
each test's store lives under its own ``tmp_path``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.campaign import RunSpec, cache
from repro.serve.service import CampaignService, ServiceConfig
from tests.fault_executor import fail_once, kill_once

SCALE = 80
FP = "test-fp"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)


def spec(seed: int, policy: str = "dbi") -> RunSpec:
    return RunSpec(benchmark="GUPS", system="ddr4-server", policy=policy,
                   accesses_per_core=SCALE, seed=seed)


def config(tmp_path, **kw) -> ServiceConfig:
    kw.setdefault("store_root", tmp_path / "store")
    kw.setdefault("shards", 0)
    kw.setdefault("fingerprint", FP)
    kw.setdefault("backoff_base_s", 0.01)
    return ServiceConfig(**kw)


async def wait_terminal(job, timeout: float = 120.0) -> None:
    """Block until the job's event log closes (terminal state)."""

    async def _drain():
        async for _event in job.log.subscribe():
            pass

    await asyncio.wait_for(_drain(), timeout)


def with_service(cfg, body):
    """asyncio.run a coroutine with a started service, always stopping."""

    async def _main():
        service = CampaignService(cfg)
        await service.start()
        try:
            return await body(service)
        finally:
            await service.stop()

    return asyncio.run(_main())


def test_execute_then_cache_hit(tmp_path):
    specs = [spec(1), spec(2)]

    async def body(service):
        job = service.submit_specs(specs, namespace="t")
        await wait_terminal(job)
        assert job.state == "done"
        assert job.counters["executed"] == 2
        rows = service.result_rows(job.id)
        assert [r["cache_key"] for r in rows] == job.keys
        assert all(r["summary"] for r in rows)
        # Resubmission is pure cache: nothing executes again.
        again = service.submit_specs(specs, namespace="t")
        assert again.state == "done"
        assert again.counters["cache_hits"] == 2
        assert service.counters["executed"] == 2
        # The store indexed both submissions under the namespace.
        assert set(service.store.keys("t")) == set(job.keys)
        return service.stats()

    stats = with_service(config(tmp_path), body)
    assert stats["manager"]["finished"] == 2
    assert stats["queue_depth"] == 0 and stats["inflight"] == 0


def test_retry_with_backoff_recovers(tmp_path, monkeypatch):
    fail_once(monkeypatch, tmp_path / "fail-once")

    async def body(service):
        job = service.submit_specs([spec(3)])
        await wait_terminal(job)
        return job

    job = with_service(config(tmp_path, retries=2), body)
    assert job.state == "done"
    assert job.counters["retries"] == 1
    assert (tmp_path / "fail-once").exists()


def test_retries_exhausted_fails_job(tmp_path, monkeypatch):
    # retries=0 means the single injected failure exhausts the budget.
    fail_once(monkeypatch, tmp_path / "f0")

    async def body(service):
        job = service.submit_specs([spec(4)])
        await wait_terminal(job)
        return job

    job = with_service(config(tmp_path, retries=0), body)
    assert job.state == "failed"
    assert job.counters["failed"] == 1
    assert "injected" in job.error or "failed" in job.error


def test_pause_coalesces_duplicate_submissions(tmp_path):
    specs = [spec(5), spec(6)]

    async def body(service):
        service.pause()
        first = service.submit_specs(specs, namespace="a")
        second = service.submit_specs(specs, namespace="b")
        assert second.counters["coalesced"] == 2
        assert service.manager.queue_depth == 2  # two units, four waiters
        service.resume()
        await wait_terminal(first)
        await wait_terminal(second)
        assert first.state == second.state == "done"
        # The two jobs settled from TWO executions, not four.
        assert service.counters["executed"] == 2
        assert first.counters["executed"] == 2
        assert second.counters["executed"] == 2
        # Both tenants pin the same keys in the store.
        assert service.store.keys("a") == service.store.keys("b")

    with_service(config(tmp_path), body)


def test_shard_death_releases_lease_and_respawns(tmp_path, monkeypatch):
    """SIGKILLing a shard mid-run must not strand its RunSpec."""
    kill_once(monkeypatch, tmp_path / "kill-once")
    specs = [spec(s) for s in range(7, 10)]

    async def body(service):
        job = service.submit_specs(specs)
        await wait_terminal(job)
        return job, service.stats()

    job, stats = with_service(
        config(tmp_path, shards=2, retries=2), body
    )
    assert job.state == "done"
    assert job.counters["executed"] == len(specs)
    assert (tmp_path / "kill-once").exists()
    assert stats["service"]["died"] == 1
    assert stats["respawns"] == 1
    assert job.counters["retries"] >= 1


def test_inline_slot_holds_one_lease_at_a_time(tmp_path):
    """With no fleet at all, the broker's inline slot runs one lease at
    a time, like a serial campaign: never two keys out at once."""
    specs = [spec(s) for s in range(50, 54)]

    async def body(service):
        peak = 0
        dispatch = service.pool.dispatch

        def watched(key, sp):
            nonlocal peak
            peak = max(peak, service.manager.inflight)
            return dispatch(key, sp)

        service.pool.dispatch = watched
        job = service.submit_specs(specs)
        await wait_terminal(job)
        assert job.state == "done"
        assert job.counters["executed"] == len(specs)
        return peak

    assert with_service(config(tmp_path), body) == 1


def test_inline_lease_does_not_hold_loop_shutdown(monkeypatch):
    """A running inline lease must not keep ``asyncio.run`` from
    returning (what Ctrl-C on a serial campaign waits for): the slot's
    thread is a daemon, not a loop executor thread joined at shutdown."""
    import threading
    import time

    from repro.campaign import runner
    from repro.serve.shards import LeaseBroker

    release = threading.Event()
    started = threading.Event()

    def blocked(spec, audit=False):
        started.set()
        release.wait(5)
        return {}, 0.0

    monkeypatch.setattr(runner, "_execute", blocked)
    outcomes = []

    async def main():
        broker = LeaseBroker(0, lambda *outcome: outcomes.append(outcome),
                             heartbeat_s=0)
        broker.start()
        assert broker.dispatch("key", spec(1))
        for _ in range(500):  # the lease is running within 5 s
            if started.is_set():
                break
            await asyncio.sleep(0.01)
        broker.close()

    t0 = time.monotonic()
    try:
        asyncio.run(main())
        elapsed = time.monotonic() - t0
    finally:
        release.set()
    assert started.is_set()
    assert elapsed < 1.0, f"loop shutdown waited {elapsed:.2f}s"
    lease = [t for t in threading.enumerate()
             if t.name == "repro-inline-lease"]
    for thread in lease:
        thread.join(5)
        assert not thread.is_alive()
    assert outcomes == []  # the abandoned lease posted to a closed loop


def test_idle_sweep_enforces_quota(tmp_path):
    specs = [spec(s) for s in range(11, 14)]

    async def body(service):
        job = service.submit_specs(specs, namespace="small")
        await wait_terminal(job)
        return job

    job = with_service(config(tmp_path, quotas={"small": 1}), body)
    assert job.state == "done"
    store_runs = tmp_path / "store" / "runs"
    kept = {p.stem for p in store_runs.glob("*.json")}
    # The sweep ran at idle: only the quota's worth of results survive.
    assert len(kept) == 1
    assert kept < set(job.keys)


def test_cancel_mid_backoff_clears_attempts(tmp_path):
    """Regression: ``_attempts[key]`` leaked when every waiter cancelled
    while the key sat in retry backoff — the eventual release dropped
    the unit from the manager but the service kept the counter."""

    async def body(service):
        service.pause()
        job = service.submit_specs([spec(30)])
        key, sp = service.manager.next_work()  # lease it ourselves
        service._on_result(key, sp, ("err", "injected"))  # -> backoff
        assert service._attempts == {key: 1}
        service.cancel(job.id)  # last waiter gone, lease still out
        # The backoff fires, release() finds no live waiters, drops the
        # unit, and on_drop clears the retry bookkeeping.
        for _ in range(100):
            if not service._attempts:
                break
            await asyncio.sleep(0.01)
        assert service._attempts == {}
        assert service.manager._waiters == {}
        assert service.manager._spec_by_key == {}
        assert service.manager.outstanding == 0

    with_service(config(tmp_path, retries=5), body)


def test_store_seq_write_is_atomic(tmp_path):
    """The seq file gets tmp+rename like the tenant indexes: no
    ``seq.tmp*`` residue and always a parseable integer."""

    async def body(service):
        job = service.submit_specs([spec(31)], namespace="t")
        await wait_terminal(job)

    with_service(config(tmp_path), body)
    store_root = tmp_path / "store"
    assert not list(store_root.glob("seq.tmp*"))
    assert int((store_root / "seq").read_text()) >= 1


def test_service_probe_records(tmp_path):
    from repro.telemetry import TelemetrySession

    session = TelemetrySession(label="serve-test", time_unit="seconds")

    async def _main():
        service = CampaignService(config(tmp_path), telemetry=session)
        await service.start()
        try:
            job = service.submit_specs([spec(40)])
            await wait_terminal(job)
            job2 = service.submit_specs([spec(40)])  # pure cache hit
            assert job2.state == "done"
        finally:
            await service.stop()

    asyncio.run(_main())
    metrics = session.registry.as_dict()
    assert metrics["serve.jobs.submitted"]["value"] == 2
    assert metrics["serve.lease.ok"]["value"] == 1
    assert metrics["serve.specs.cache_hits"]["value"] == 1
    assert metrics["serve.queue.depth"]["value"] == 0
    assert metrics["serve.workers.connected"]["value"] == 0


def test_payload_validation():
    from repro.serve.service import payload_specs

    with pytest.raises(ValueError):
        payload_specs({"kind": "nope"})
    with pytest.raises(ValueError):
        payload_specs({"kind": "specs", "specs": []})
    with pytest.raises(ValueError):
        payload_specs({"kind": "specs", "specs": [{"bogus_field": 1}]})
    with pytest.raises(ValueError):
        payload_specs({"kind": "scenario", "scenario": "not-a-dict"})
    decoded = payload_specs(
        {"kind": "specs", "specs": [spec(1).canonical()]}
    )
    assert decoded == [spec(1)]
