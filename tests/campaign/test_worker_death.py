"""A worker dying mid-lease must not strand its RunSpec.

``tests.fault_executor.kill_once`` makes exactly one worker shard
SIGKILL itself mid-run.  The lease broker sees the shard's pipe close;
the runner's engine must release that spec back to the queue, respawn
the shard, and finish the campaign with every result present — the
failure mode this guards against is the campaign hanging or silently
dropping the dead worker's spec.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignRunner, RunSpec, cache
from tests.fault_executor import kill_once

SCALE = 80
FP = "test-fp"


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _specs(n: int) -> list:
    return [
        RunSpec(benchmark="GUPS", system="ddr4-server", policy="dbi",
                accesses_per_core=SCALE, seed=seed)
        for seed in range(n)
    ]


def test_sigkilled_worker_releases_spec(tmp_path, monkeypatch):
    kill_once(monkeypatch, tmp_path / "kill-sentinel")
    specs = _specs(4)
    events = []
    runner = CampaignRunner(jobs=2, sink=events.append, fingerprint=FP)
    results = runner.run(specs)

    # Every spec completed despite one worker being SIGKILLed.
    assert set(results) == set(specs)
    assert runner.counters["executed"] == len(specs)
    assert runner.counters["failed"] == 0
    assert not runner.failures
    # The sentinel actually tripped, and the dead worker's spec was
    # requeued (visible as a "retried" event naming the dead shard).
    assert (tmp_path / "kill-sentinel").exists()
    assert runner.counters["retries"] >= 1
    assert any(e.kind == "retried" for e in events)
    # Results landed in the cache like any healthy campaign's would.
    for spec in specs:
        assert cache.load(spec, FP) is not None


def test_killed_campaign_matches_clean_campaign(tmp_path, monkeypatch):
    """Recovery changes scheduling, never results."""
    specs = _specs(3)
    clean_dir = tmp_path / "clean"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(clean_dir))
    clean = CampaignRunner(jobs=1, fingerprint=FP).run(specs)

    killed_dir = tmp_path / "killed"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(killed_dir))
    kill_once(monkeypatch, tmp_path / "sentinel2")
    killed = CampaignRunner(jobs=2, fingerprint=FP).run(specs)

    for spec in specs:
        a, b = killed[spec].to_dict(), clean[spec].to_dict()
        a.pop("stats", None), b.pop("stats", None)  # wall-clock only
        assert a == b
    # Cache files are byte-identical modulo the timing block.
    for spec in specs:
        key = cache.cache_key(spec, FP)
        a = (clean_dir / f"{key}.json").read_text()
        b = (killed_dir / f"{key}.json").read_text()
        import json

        da, db = json.loads(a), json.loads(b)
        da.pop("meta"), db.pop("meta")
        assert da == db
