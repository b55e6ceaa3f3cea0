"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parent.parent.parent / "src"


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for expected in ("GUPS", "ddr4-server", "lpddr3-mobile", "mil",
                         "fig16", "table4"):
            assert expected in out


class TestRun:
    def test_run_prints_summary(self, capsys):
        assert main(["run", "MM", "--scale", "600"]) == 0
        out = capsys.readouterr().out
        assert "MM on ddr4-server" in out
        assert "zeros on bus" in out

    def test_run_with_baseline_comparison(self, capsys):
        assert main([
            "run", "mm", "--scale", "600", "--policy", "milc", "--baseline",
        ]) == 0
        out = capsys.readouterr().out
        assert "vs DBI: zeros" in out

    def test_unknown_system_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "MM", "--system", "pdp11"])

    def test_unknown_policy_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "MM", "--policy", "huffman"])


class TestExperiment:
    def test_analytic_experiment(self, capsys):
        assert main(["experiment", "table4"]) == 0
        out = capsys.readouterr().out
        assert "milc-enc" in out

    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestTrace:
    def test_trace_dump_and_audit(self, tmp_path, capsys):
        out = tmp_path / "bus.csv"
        assert main([
            "trace", "MM", str(out), "--scale", "600", "--policy", "milc",
        ]) == 0
        text = capsys.readouterr().out
        assert "audit: clean" in text
        assert (tmp_path / "bus.ch0.csv").exists()
        assert (tmp_path / "bus.ch1.csv").exists()

    def test_trace_jsonl_format(self, tmp_path, capsys):
        out = tmp_path / "bus.jsonl"
        assert main(["trace", "MM", str(out), "--scale", "600"]) == 0
        assert (tmp_path / "bus.ch0.jsonl").exists()


class TestTelemetry:
    def test_run_telemetry_extends_summary(self, capsys):
        assert main([
            "run", "MM", "--scale", "400", "--policy", "mil", "--telemetry",
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry: bursts" in out
        assert "telemetry: decision mix" in out

    def test_run_trace_out_writes_both_artifacts(self, tmp_path, capsys):
        stem = tmp_path / "mm"
        assert main([
            "run", "MM", "--scale", "400", "--policy", "mil",
            "--trace-out", str(stem),
        ]) == 0
        trace = json.loads((tmp_path / "mm.trace.json").read_text())
        assert trace["traceEvents"], "trace must not be empty"
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert "X" in phases and "M" in phases
        metrics = (tmp_path / "mm.metrics.jsonl").read_text().splitlines()
        assert "meta" in json.loads(metrics[0])

    def test_telemetry_verb_renders_a_dump(self, tmp_path, capsys):
        stem = tmp_path / "mm"
        assert main([
            "run", "MM", "--scale", "400", "--policy", "mil",
            "--trace-out", str(stem),
        ]) == 0
        capsys.readouterr()
        assert main(["telemetry", str(tmp_path / "mm.metrics.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "decision mix" in out
        assert "core.ch0.decision" in out
        # The decision mix line carries the burst-sum invariant.
        assert "(sum " in out

    def test_telemetry_verb_rejects_non_dumps(self, tmp_path):
        bogus = tmp_path / "not-a-dump.jsonl"
        bogus.write_text('{"name": "x"}\n')
        with pytest.raises(SystemExit):
            main(["telemetry", str(bogus)])
        with pytest.raises(SystemExit):
            main(["telemetry", str(tmp_path / "missing.jsonl")])

    def test_campaign_trace_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runs"))
        stem = tmp_path / "camp"
        assert main([
            "campaign", "fig02", "--scale", "80", "--no-report",
            "--telemetry", "--trace-out", str(stem),
        ]) == 0
        trace = json.loads((tmp_path / "camp.trace.json").read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert "campaign.scan" in {e["name"] for e in spans}
        finished = [e for e in spans if e["cat"] == "run.finished"]
        assert len(finished) == 4  # fig02 is four runs, all executed cold

    def test_run_without_flags_stays_silent(self, capsys):
        assert main(["run", "MM", "--scale", "400"]) == 0
        out = capsys.readouterr().out
        assert "telemetry" not in out


class TestInterrupt:
    def test_ctrl_c_prints_one_line_and_exits_130(self, monkeypatch, capsys):
        from repro.campaign import CampaignRunner

        def interrupted(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(CampaignRunner, "run", interrupted)
        try:
            code = main(["campaign", "fig02", "--scale", "64", "--no-report"])
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped repro.cli.main")
        assert code == 130
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip() == "repro campaign: interrupted"


def _children(pid: int) -> list:
    try:
        return Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except OSError:
        return []


class TestParallelInterrupt:
    """Ctrl-C on a parallel campaign, as a terminal delivers it: SIGINT
    to the whole process group, shards included."""

    @pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task").is_dir(),
                        reason="needs /proc to see the shards fork")
    @pytest.mark.parametrize("after_s", [0.0, 1.5])
    def test_sigint_to_the_group_exits_130(self, tmp_path, after_s):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "fig02",
             "--scale", "4000", "--no-report", "-j2"],
            env=dict(os.environ, PYTHONPATH=str(SRC),
                     REPRO_CACHE_DIR=str(tmp_path / "runs")),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while len(_children(proc.pid)) < 2:  # both shards forked
                assert proc.poll() is None, "campaign ended before Ctrl-C"
                assert time.monotonic() < deadline, "shards never forked"
                time.sleep(0.01)
            time.sleep(after_s)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 130, err
            assert "Traceback" not in err
            assert err.count("interrupted") == 1
            assert err.rstrip().endswith("repro campaign: interrupted")
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)  # no shard left in the group
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
