"""End-to-end ``repro bench`` CLI behaviour.

Runs use a single cheap benchmark (``campaign.cache_key``) with
``--repeats 1 --warmup 0`` so the whole file stays fast (only the
compare gate's baseline takes the minimum of five warm samples);
protocol correctness is covered by the unit tests.
"""

import json

import pytest

from repro.bench import load_report
from repro.cli import main

FAST = ["--repeats", "1", "--warmup", "0", "-k", "campaign.cache_key"]
WARM = ["--repeats", "5", "--warmup", "1", "-k", "campaign.cache_key"]


def _bench(*argv):
    return main(["bench", *argv])


class TestListAndSelect:
    def test_list_names_benchmarks(self, capsys):
        assert _bench("--list") == 0
        out = capsys.readouterr().out
        assert "coding.bitops.popcount" in out
        assert "dram.channel.tick" in out

    def test_list_smoke_is_a_subset(self, capsys):
        _bench("--list")
        full = capsys.readouterr().out.splitlines()
        _bench("--list", "--smoke")
        smoke = capsys.readouterr().out.splitlines()
        assert 0 < len(smoke) < len(full)

    def test_unknown_pattern_exits_with_known_names(self):
        with pytest.raises(SystemExit) as err:
            _bench("-k", "no.such.benchmark")
        assert "no benchmarks match" in str(err.value)


class TestRun:
    def test_writes_schema_valid_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert _bench(*FAST, "--out", str(out)) == 0
        doc = load_report(out)  # raises if schema-invalid
        assert [e["name"] for e in doc["results"]] == ["campaign.cache_key"]
        assert doc["protocol"]["repeats"] == 1

    def test_default_out_is_bench_timestamp_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert _bench(*FAST) == 0
        files = list(tmp_path.glob("BENCH_*.json"))
        assert len(files) == 1
        load_report(files[0])


class TestCompareGate:
    def _baseline_from(self, report_path, tmp_path, scale):
        doc = json.loads(report_path.read_text())
        for entry in doc["results"]:
            entry["ns_per_op"] = {
                stat: value * scale
                for stat, value in entry["ns_per_op"].items()
            }
        path = tmp_path / f"baseline_{scale}.json"
        path.write_text(json.dumps(doc))
        return path

    def test_injected_2x_slowdown_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "now.json"
        # The baseline comes from the minimum of several warm samples: a
        # single cold sample can run ~2x its warm time, and halving it
        # then injects no regression at all.
        assert _bench(*WARM, "--out", str(out)) == 0
        # A baseline claiming everything used to run twice as fast makes
        # the current run a 2x regression, far beyond the 20% gate.
        fast_past = self._baseline_from(out, tmp_path, scale=0.5)
        code = _bench(*FAST, "--out", str(tmp_path / "again.json"),
                      "--compare", str(fast_past), "--max-regression", "20")
        assert code == 1
        text = capsys.readouterr().out
        assert "REGRESSED" in text and "campaign.cache_key" in text

    def test_comparable_baseline_passes(self, tmp_path):
        out = tmp_path / "now.json"
        assert _bench(*FAST, "--out", str(out)) == 0
        # A baseline 1000x slower can only show improvement.
        slow_past = self._baseline_from(out, tmp_path, scale=1000.0)
        code = _bench(*FAST, "--out", str(tmp_path / "again.json"),
                      "--compare", str(slow_past))
        assert code == 0

    def test_missing_baseline_file_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            _bench(*FAST, "--out", str(tmp_path / "r.json"),
                   "--compare", str(tmp_path / "missing.json"))


class TestCommittedBaseline:
    def test_repo_baseline_is_schema_valid_and_covers_smoke(self):
        from pathlib import Path

        import repro
        from repro.bench import select

        root = Path(repro.__file__).resolve().parents[2]
        doc = load_report(root / "benchmarks" / "baseline.json")
        names = {e["name"] for e in doc["results"]}
        smoke = {d.name for d in select(smoke_only=True)}
        assert smoke <= names


class TestProfile:
    def test_cprofile_writes_stats(self, tmp_path, capsys):
        code = _bench("-k", "campaign.cache_key", "--profile", "cprofile",
                      "--profile-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "campaign.cache_key.prof").exists()
        text = (tmp_path / "campaign.cache_key.txt").read_text()
        assert "cumulative" in text

    def test_missing_pyinstrument_reports_cleanly(self, tmp_path):
        try:
            import pyinstrument  # noqa: F401
            pytest.skip("pyinstrument installed; error path not reachable")
        except ImportError:
            pass
        with pytest.raises(SystemExit) as err:
            _bench("-k", "campaign.cache_key", "--profile", "pyinstrument",
                   "--profile-dir", str(tmp_path))
        assert "pyinstrument is not installed" in str(err.value)
