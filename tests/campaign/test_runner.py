"""CampaignRunner: serial/parallel equivalence, retries, events.

The tiny GUPS/MM traces here run in well under a second each, so the
parallel cases exercise real worker shards (``tests/conftest.py``
unsets ``REPRO_JOBS``, so only an explicit ``jobs=`` fans out).
"""

import json

import pytest

from repro.campaign import CampaignRunner, RunSpec, cache_path
from repro.campaign.runner import default_jobs
from tests.fault_executor import fail_once

SCALE = 80  # accesses per core: tiny but a full end-to-end simulation
FP = "test-fp"  # fixed fingerprint so model edits don't churn test files


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runs"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)


def _specs():
    return [
        RunSpec(benchmark=bench, policy=policy, accesses_per_core=SCALE)
        for bench in ("MM", "GUPS")
        for policy in ("dbi", "mil")
    ]


def test_default_jobs_parses_repro_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    for raw, jobs in (("3", 3), ("0", 1), ("x", 1)):
        monkeypatch.setenv("REPRO_JOBS", raw)
        assert default_jobs() == jobs


def test_serial_and_parallel_campaigns_agree(tmp_path, monkeypatch):
    specs = _specs()

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    serial = CampaignRunner(jobs=1, fingerprint=FP)
    serial_results = serial.run(specs)
    serial_payloads = {
        spec: json.loads(cache_path(spec, FP).read_text())
        for spec in specs
    }

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    parallel = CampaignRunner(jobs=2, fingerprint=FP)
    parallel_results = parallel.run(specs)

    assert serial.counters["executed"] == len(specs)
    assert parallel.counters["executed"] == len(specs)
    assert set(serial_results) == set(parallel_results)
    for spec in specs:
        payload = json.loads(cache_path(spec, FP).read_text())
        ref = serial_payloads[spec]
        # byte-identical modulo the meta (timing) block
        payload["meta"] = ref["meta"] = None
        assert json.dumps(payload, sort_keys=True) == \
            json.dumps(ref, sort_keys=True)


def test_duplicate_specs_run_once():
    spec = RunSpec(benchmark="MM", policy="dbi", accesses_per_core=SCALE)
    runner = CampaignRunner(jobs=1, fingerprint=FP)
    results = runner.run([spec, spec, RunSpec(
        benchmark="mm", policy="dbi", accesses_per_core=SCALE)])
    assert runner.counters["specs"] == 1
    assert runner.counters["executed"] == 1
    assert list(results) == [spec]


def test_event_stream_cold_then_warm():
    spec = RunSpec(benchmark="MM", policy="dbi", accesses_per_core=SCALE)
    cold_events = []
    cold = CampaignRunner(jobs=1, sink=cold_events.append,
                          fingerprint=FP).run([spec])
    assert cold[spec].stats["cache_hit"] is False
    assert cold[spec].stats["wall_s"] > 0
    assert [e.kind for e in cold_events] == ["queued", "started", "finished"]
    finished = cold_events[-1]
    assert finished.spec == spec
    assert finished.wall_s > 0
    assert finished.key == cache_path(spec, FP).stem

    warm_events = []
    warm = CampaignRunner(jobs=1, sink=warm_events.append, fingerprint=FP)
    warm.run([spec])
    assert [e.kind for e in warm_events] == ["queued", "cache-hit"]
    assert warm.counters["cache_hits"] == 1
    assert warm.counters["executed"] == 0


def test_worker_failure_is_retried(tmp_path, monkeypatch):
    sentinel = tmp_path / "fail-once"
    fail_once(monkeypatch, sentinel)
    spec = RunSpec(benchmark="MM", policy="dbi", accesses_per_core=SCALE)
    events = []
    runner = CampaignRunner(jobs=1, sink=events.append, fingerprint=FP)
    results = runner.run([spec])
    assert sentinel.exists()  # the injected failure really fired
    assert runner.counters["retries"] == 1
    assert runner.counters["failed"] == 0
    assert results[spec].cycles > 0
    # The retry is a second lease, so it starts again.
    assert [e.kind for e in events] == \
        ["queued", "started", "retried", "started", "finished"]


def test_retry_budget_exhaustion_raises(tmp_path, monkeypatch):
    sentinel = tmp_path / "fail-once"
    fail_once(monkeypatch, sentinel)
    spec = RunSpec(benchmark="MM", policy="dbi", accesses_per_core=SCALE)
    events = []
    runner = CampaignRunner(jobs=1, sink=events.append, retries=0,
                            fingerprint=FP)
    with pytest.raises(RuntimeError, match="injected worker failure"):
        runner.run([spec])
    assert runner.counters["failed"] == 1
    assert events[-1].kind == "failed"


def test_parallel_worker_failure_is_requeued(tmp_path, monkeypatch):
    sentinel = tmp_path / "fail-once"
    fail_once(monkeypatch, sentinel)
    specs = _specs()[:2]
    runner = CampaignRunner(jobs=2, fingerprint=FP)
    results = runner.run(specs)
    assert len(results) == 2
    assert runner.counters["executed"] == 2
    # exactly one shard tripped the sentinel; the engine re-queued it
    assert runner.counters["retries"] == 1
    assert runner.counters["failed"] == 0


def test_no_cache_campaign_reexecutes(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    spec = RunSpec(benchmark="MM", policy="dbi", accesses_per_core=SCALE)
    for _ in range(2):
        runner = CampaignRunner(jobs=1, fingerprint=FP)
        runner.run([spec])
        assert runner.counters["cache_hits"] == 0
        assert runner.counters["executed"] == 1
    assert not cache_path(spec, FP).exists()
