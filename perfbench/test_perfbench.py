"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import fig16
import gups
import run
import serveloop
from common import ROOT, Tally, clock, scratch_dir

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload; restore the environment and cwd after."""
    monkeypatch.setattr(gups, "ACCESSES_PER_CORE", 64)
    monkeypatch.setattr(fig16, "ACCESSES_PER_CORE", 64)
    monkeypatch.setattr(serveloop, "ACCESSES_PER_CORE", 64)
    monkeypatch.setattr(serveloop, "MIN_JOBS", 3)
    monkeypatch.setattr(serveloop, "SAMPLE", 2)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    for name in ("REPRO_CACHE_DIR", "PYTHONPATH"):
        monkeypatch.setenv(name, os.environ.get(name, ""))
    monkeypatch.chdir(ROOT)
    run.require_program()


def _run(capsys, workload, trace, seconds="0.2"):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", seconds, "--trace", str(trace)])
    assert code == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_printed_with_its_unit(tiny, capsys, workload, trace):
    lines = _run(capsys, workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = result["metrics"][name]
        assert got["unit"] == unit
        assert isinstance(got["value"], (int, float))
        assert f"metric {name} {got['value']} {unit}" in lines
    assert any(line.startswith("metric failed_ratio 0") for line in lines)
    if trace:
        assert any(line.startswith("exact sim_cycles ") for line in lines)
    assert not list((ROOT / ".perfbench" / "tmp").iterdir())


def test_wrong_pinned_digest_counts_as_failure(tiny, capsys, monkeypatch):
    slug = gups.plan(3)[0].slug
    monkeypatch.setattr(run, "load_pins", lambda name: {slug: "0" * 64})
    result = json.loads(_run(capsys, "gups-mil-cold", 0)[-1])
    assert result["failed"] >= 1 and not result["correct"]


def test_spans_nest_and_self_times_add_up(tiny):
    from spans import Tracer

    tracer = Tracer(clock)
    with scratch_dir("test-") as scratch, gups.session(3, scratch) as state:
        metrics, _ = gups.measure(state, 0.0, Tally(), {}, tracer)
    by_id = {span.id: span for span in tracer.spans}
    roots = [span for span in tracer.spans if span.parent is None]
    assert [span.name for span in roots] == ["run_spec"]
    for span in tracer.spans:
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            assert span.req == parent.req
    layers = tracer.layer_self_times(roots)
    assert {"workloads", "coding", "system", "energy", "analysis",
            "core"} <= set(layers)
    assert sum(layers.values()) == pytest.approx(roots[0].dur, abs=1e-9)
    layer_sum = sum(metrics[name] for name in (
        "workloads.build_trace_s", "coding.zero_tables_s",
        "system.simulate_s", "energy.evaluate_s", "analysis.stats_s",
        "core.run_self_s"))
    assert layer_sum == pytest.approx(metrics["trace.traced_s"], abs=1e-9)
    # Every patched name is back in place.
    from repro.core import framework

    from layers import ENERGY_MODELS, RUN_LAYER_NAMES

    restored = [getattr(framework, name) for name in RUN_LAYER_NAMES]
    restored += [getattr(framework, m).evaluate for m in ENERGY_MODELS]
    assert all(f.__module__.startswith("repro.") for f in restored)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gups-mil-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
