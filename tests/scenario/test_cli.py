"""The ``repro scenario`` verb, end to end."""

import json

import pytest

from repro.cli import main

TINY_YAML = """\
schema: repro.scenario/v1
name: SYN-CLI
description: cli smoke scenario
seed: 0
accesses_per_core: 80
arrival: {kind: poisson, mean_gap: 30}
mix: {GUPS: 0.5, CG: 0.5}
grid:
  policy: [dbi, mil]
"""


@pytest.fixture()
def corpus(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "syn-cli.yaml"
    path.write_text(TINY_YAML)
    return tmp_path, path


class TestListShowCompile:
    def test_list_names_and_run_counts(self, corpus, capsys):
        tmp_path, _ = corpus
        assert main(["scenario", "list", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "SYN-CLI" in out
        assert "2 runs" in out

    def test_list_flags_invalid_files(self, corpus, capsys):
        tmp_path, _ = corpus
        (tmp_path / "broken.json").write_text('{"schema": "nope"}')
        assert main(["scenario", "list", "--dir", str(tmp_path)]) == 0
        assert "INVALID" in capsys.readouterr().out

    def test_show_prints_canonical_form(self, corpus, capsys):
        _, path = corpus
        assert main(["scenario", "show", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "SYN-CLI"
        assert doc["schema"] == "repro.scenario/v1"

    def test_compile_output_is_byte_stable(self, corpus, capsys):
        _, path = corpus
        assert main(["scenario", "compile", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["scenario", "compile", str(path)]) == 0
        assert capsys.readouterr().out == first
        lines = [json.loads(line) for line in first.splitlines()]
        assert len(lines) == 2
        assert {l["spec"]["policy"] for l in lines} == {"dbi", "mil"}

    def test_dry_run_matches_compile(self, corpus, capsys):
        _, path = corpus
        assert main(["scenario", "compile", str(path)]) == 0
        compiled = capsys.readouterr().out
        assert main(["scenario", "run", str(path), "--dry-run"]) == 0
        assert capsys.readouterr().out == compiled

    def test_invalid_file_exits(self, corpus):
        tmp_path, _ = corpus
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema: wrong\nname: X\nmix: {GUPS: 1}\n")
        with pytest.raises(SystemExit):
            main(["scenario", "show", str(bad)])

    def test_missing_corpus_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scenario", "compile", "--dir", str(tmp_path / "void")])


class TestRun:
    def test_twice_run_hits_cache_with_identical_rows(self, corpus,
                                                      capsys):
        tmp_path, path = corpus
        out1 = tmp_path / "pass1.jsonl"
        out2 = tmp_path / "pass2.jsonl"
        assert main(["scenario", "run", str(path), "--out",
                     str(out1)]) == 0
        assert main(["scenario", "run", str(path), "--out",
                     str(out2)]) == 0
        rows1 = [json.loads(l) for l in out1.read_text().splitlines()]
        rows2 = [json.loads(l) for l in out2.read_text().splitlines()]
        assert len(rows1) == len(rows2) == 2
        assert all(r["timing"]["cache_hit"] is False for r in rows1)
        assert all(r["timing"]["cache_hit"] is True for r in rows2)
        strip = lambda rows: [
            {k: v for k, v in r.items() if k != "timing"} for r in rows
        ]
        assert strip(rows1) == strip(rows2)
        err = capsys.readouterr().err
        assert "2 cache hits" in err

    def test_out_with_multiple_scenarios_rejected(self, corpus):
        tmp_path, path = corpus
        other = tmp_path / "other.yaml"
        other.write_text(TINY_YAML.replace("SYN-CLI", "SYN-CLI2"))
        with pytest.raises(SystemExit):
            main(["scenario", "run", str(path), str(other), "--out",
                  str(tmp_path / "x.jsonl")])


class TestRunAudit:
    def test_audit_flag_audits_every_executed_run(self, corpus, tmp_path,
                                                  monkeypatch, capsys):
        from repro.audit import ProtocolAuditor, Violation

        _, path = corpus
        out = tmp_path / "rows.jsonl"
        argv = ["scenario", "run", str(path), "--out", str(out)]
        assert main(argv + ["--audit"]) == 0  # clean runs pass
        assert "2 executed" in capsys.readouterr().err

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cold"))
        dirty = Violation("tFAW", 47, 0, "injected by the test")
        monkeypatch.setattr(ProtocolAuditor, "audit",
                            lambda self, commands, transactions=None:
                            [dirty])
        assert main(argv + ["--audit"]) == 1
        err = capsys.readouterr().err
        assert "SYN-CLI FAILED: 2 run(s)" in err
        assert "ProtocolViolationError" in err
        assert main(argv) == 0  # unaudited runs pass under the same patch
