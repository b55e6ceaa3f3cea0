"""Campaign failure reporting: non-strict collection and CLI exit codes.

A campaign that loses runs must say so — ``strict=False`` runners
collect every failing spec instead of dying on the first one, and the
``repro campaign`` command turns that list into a non-zero exit status
with the failing cache keys printed at the end.
"""

import os

import pytest

from repro.campaign import CampaignRunner, RunSpec
from repro.campaign import runner as runner_module
from repro.campaign.cache import cache_key
from repro.cli import main

SCALE = 80
FP = "test-fp"


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


def _failing_execute(predicate):
    """Wrap the real executor to die persistently on matching specs."""
    real = runner_module._execute

    def execute(spec, audit=False):
        if predicate(spec):
            raise RuntimeError(f"injected persistent failure: {spec.slug}")
        return real(spec, audit)

    return execute


class TestNonStrictRunner:
    def test_collects_failures_and_keeps_going(self, monkeypatch):
        monkeypatch.setattr(
            runner_module, "_execute",
            _failing_execute(lambda s: s.policy == "mil"),
        )
        specs = _specs()
        events = []
        runner = CampaignRunner(jobs=1, sink=events.append, retries=0,
                                fingerprint=FP, strict=False)
        results = runner.run(specs)

        # The healthy half completed; the poisoned half is reported.
        assert sorted(s.policy for s in results) == ["dbi", "dbi"]
        assert runner.counters["failed"] == 2
        assert len(runner.failures) == 2
        for spec, error in runner.failures:
            assert spec.policy == "mil"
            assert "injected persistent failure" in error
        assert [e.kind for e in events].count("failed") == 2

    def test_strict_default_still_raises(self, monkeypatch):
        monkeypatch.setattr(
            runner_module, "_execute", _failing_execute(lambda s: True))
        runner = CampaignRunner(jobs=1, retries=0, fingerprint=FP)
        with pytest.raises(RuntimeError, match="injected persistent"):
            runner.run(_specs()[:1])
        assert runner.failures == []


class TestEventTimestamps:
    def test_events_carry_monotonic_shared_clock_stamps(self):
        spec = RunSpec(benchmark="MM", policy="dbi",
                       accesses_per_core=SCALE)
        events = []
        CampaignRunner(jobs=1, sink=events.append, fingerprint=FP).run(
            [spec])
        stamps = [e.ts for e in events]
        assert all(ts > 0 for ts in stamps)
        assert stamps == sorted(stamps)

    def test_timestamps_share_the_telemetry_clock(self):
        from repro.telemetry import monotonic_ts

        before = monotonic_ts()
        spec = RunSpec(benchmark="GUPS", policy="dbi",
                       accesses_per_core=SCALE)
        events = []
        CampaignRunner(jobs=1, sink=events.append, fingerprint=FP).run(
            [spec])
        after = monotonic_ts()
        assert all(before <= e.ts <= after for e in events)


class TestCampaignCli:
    def test_failed_campaign_exits_nonzero_and_names_keys(
            self, monkeypatch, capsys):
        monkeypatch.setattr(
            runner_module, "_execute", _failing_execute(lambda s: True))
        assert main(["campaign", "fig02", "--scale", str(SCALE),
                     "--no-report"]) == 1
        err = capsys.readouterr().err
        assert "campaign FAILED" in err
        assert "injected persistent failure" in err
        # Every failing run is named by its content-addressed key.
        from repro.campaign.fingerprint import model_fingerprint
        from repro.experiments import EXPERIMENT_PLANS

        specs = EXPERIMENT_PLANS["fig02"](accesses_per_core=SCALE)
        fp = model_fingerprint()
        for spec in specs:
            assert cache_key(spec, fp) in err

    def test_healthy_campaign_still_exits_zero(self, capsys):
        assert "REPRO_JOBS" not in os.environ  # serial jobs
        assert main(["campaign", "fig02", "--scale", str(SCALE),
                     "--no-report"]) == 0
        err = capsys.readouterr().err
        assert "campaign FAILED" not in err
        assert "0 failed" in err
