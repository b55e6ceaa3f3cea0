"""Integration: the audit layer wired through controller, runs, and CLI."""

import pytest

from repro.audit import (
    AuditReport,
    ProtocolAuditor,
    ProtocolViolationError,
    Violation,
)
from repro.audit.fuzz import fuzz_controller
from repro.campaign import CampaignRunner
from repro.campaign.spec import RunSpec
from repro.cli import main
from repro.core.framework import run_spec
from repro.dram import DDR4_3200, DDR4_GEOMETRY

SPEC = RunSpec(benchmark="GUPS", policy="mil", accesses_per_core=200)
FAKE = Violation(constraint="tFAW", cycle=47, rank=0,
                 message="injected by the test")


@pytest.fixture()
def dirty_auditor(tmp_path, monkeypatch):
    """Every channel audit reports one violation; the cache is private.

    Patched on the class before any shard forks, so forked shards
    inherit it.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runs"))
    monkeypatch.setattr(ProtocolAuditor, "audit",
                        lambda self, commands, transactions=None: [FAKE])


class TestControllerAudit:
    def test_controller_audit_method(self):
        mc, done = fuzz_controller(
            DDR4_3200, DDR4_GEOMETRY, ("dbi", "milc", "3lwc"),
            requests=24, seed=5,
        )
        assert done
        assert mc.channel.command_log  # keep_cmd_log=True wired through
        assert mc.audit() == []

    def test_audit_without_log_reports_nothing(self):
        # Default controllers don't record commands; auditing them is a
        # no-op (zero commands), not a crash.
        from repro.controller import ChannelController

        mc = ChannelController(DDR4_3200, DDR4_GEOMETRY)
        assert mc.channel.command_log == []
        assert mc.audit() == []


class TestRunSpecAudit:
    def test_report_mode_fills_report_and_stats(self):
        report = AuditReport()
        summary = run_spec(SPEC, audit=report)
        assert report.clean
        assert report.commands > 0
        assert len(report.channels) == 2  # ddr4-server has two channels
        digest = summary.stats["audit"]
        assert digest["violations"] == 0
        assert digest["commands"] == report.commands
        assert digest["by_constraint"] == {}

    def test_default_run_records_nothing(self):
        summary = run_spec(SPEC)
        assert "audit" not in summary.stats

    def test_violation_error_names_first_finding(self):
        report = AuditReport()
        violation = Violation(
            constraint="tFAW", cycle=47, rank=0,
            message="5th ACT in 47 < tFAW=48",
        )
        report.record("channel0", commands=5, transactions=0,
                      violations=[violation])
        err = ProtocolViolationError(report)
        assert "1 violation(s)" in str(err)
        assert "tFAW" in str(err)
        assert err.report is report


class TestIdleRefreshCatchUp:
    def test_long_idle_wakes_to_bounded_refresh_burst(self):
        # Jump the controller 40 tREFI into the future in one step —
        # the path where debt accrues in a single batch.  Before the
        # clamp fix the scheduler would owe 40 refreshes and issue them
        # all back-to-back; the JEDEC postponement budget allows at
        # most 8, and the auditor's overpay check enforces it.
        from repro.controller import ChannelController
        from repro.dram.refresh import MAX_POSTPONED

        mc = ChannelController(DDR4_3200, DDR4_GEOMETRY, keep_cmd_log=True)
        refi = DDR4_3200.REFI
        now = refi * 40
        horizon = refi * 42
        while now < horizon:
            mc.step(now)
            nxt = mc.next_event(now)
            now = max(now + 1, nxt if nxt is not None else horizon)
        catch_up = [
            c for c in mc.channel.command_log
            if c.cmd.name == "REFRESH" and c.cycle < refi * 41
        ]
        per_rank = {}
        for c in catch_up:
            per_rank[c.rank] = per_rank.get(c.rank, 0) + 1
        assert per_rank, "idle wake-up must issue catch-up refreshes"
        assert all(n <= MAX_POSTPONED for n in per_rank.values()), per_rank
        assert mc.audit() == []


class TestCliAudit:
    def test_fuzz_verb_clean(self, capsys):
        assert main(["fuzz", "--schedules", "4", "--seed", "3"]) == 0
        err = capsys.readouterr().err
        assert "4 schedules" in err
        assert "clean" in err

    def test_run_audit_flag(self, capsys):
        assert main([
            "run", "gups", "--scale", "120", "--audit",
        ]) == 0
        err = capsys.readouterr().err
        assert "protocol audit" in err
        assert "clean" in err

    def test_campaign_audit_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runs"))
        assert main([
            "campaign", "fig02", "--scale", "80", "--no-report", "--audit",
        ]) == 0
        err = capsys.readouterr().err
        assert "4 executed" in err
        assert "0 failed" in err

    def test_campaign_audit_flag_reaches_the_runs(self, dirty_auditor,
                                                  capsys):
        assert main([
            "campaign", "fig02", "--scale", "80", "--no-report", "--audit",
        ]) == 1
        err = capsys.readouterr().err
        assert "campaign FAILED: 4 run(s)" in err
        assert "ProtocolViolationError" in err


class TestAuditTransport:
    """``audit`` travels with the lease: runner, engine, broker, slot."""

    SPECS = [
        RunSpec(benchmark="GUPS", policy=policy, accesses_per_core=80)
        for policy in ("dbi", "mil")
    ]

    @pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "shards"])
    def test_dirty_audit_fails_every_executed_run(self, dirty_auditor,
                                                  jobs):
        runner = CampaignRunner(jobs=jobs, audit=True, strict=False,
                                retries=0)
        assert runner.run(self.SPECS) == {}
        assert runner.counters["failed"] == len(self.SPECS)
        assert sorted(s.policy for s, _ in runner.failures) == [
            "dbi", "mil",
        ]
        for _, error in runner.failures:
            assert error.startswith("ProtocolViolationError(")
            assert "injected by the test" in error

    @pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "shards"])
    def test_unaudited_runs_ignore_the_dirty_auditor(self, dirty_auditor,
                                                     jobs):
        runner = CampaignRunner(jobs=jobs, strict=False, retries=0)
        results = runner.run(self.SPECS)
        assert set(results) == set(self.SPECS)
        assert runner.failures == []
        assert all("audit" not in s.stats for s in results.values())
