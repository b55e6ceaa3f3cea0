"""RunSpec: normalisation, hashing, and cross-process key stability."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import RunSpec, cache_path
from repro.campaign.cache import cache_key
from repro.system.machine import NIAGARA_SERVER

SRC = Path(__file__).resolve().parents[2] / "src"


def test_spec_is_frozen_and_hashable():
    spec = RunSpec(benchmark="MM")
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.benchmark = "CG"
    assert {spec: 1}[RunSpec(benchmark="MM")] == 1


def test_benchmark_and_overrides_normalised():
    a = RunSpec(benchmark="mm",
                mil_overrides={"epoch_len": 64, "decision": "rdyx"})
    b = RunSpec(benchmark="MM",
                mil_overrides=(("decision", "rdyx"), ("epoch_len", 64)))
    assert a == b
    assert hash(a) == hash(b)
    assert a.canonical_json() == b.canonical_json()


def test_spec_validates_inputs():
    with pytest.raises(KeyError):
        RunSpec(benchmark="MM", system="no-such-machine")
    with pytest.raises(ValueError):
        RunSpec(benchmark="MM", accesses_per_core=0)
    with pytest.raises(ValueError):
        RunSpec(benchmark="MM", lookahead=-1)
    with pytest.raises(TypeError):
        RunSpec(benchmark="MM", system_overrides=(("timing", object()),))


def test_spec_validates_benchmark_against_registry():
    # Typos must die at spec-build time, naming the known suite, not
    # deep inside a worker process at trace-build time.
    with pytest.raises(KeyError, match="GUPS"):
        RunSpec(benchmark="GUSP")
    # Canonical mix names are first-class benchmarks...
    spec = RunSpec(benchmark="mix@poisson:40@z:0@cg:0.5+gups:0.5")
    assert spec.benchmark.startswith("MIX@")
    # ...but malformed ones are rejected, not deferred.
    with pytest.raises(ValueError):
        RunSpec(benchmark="MIX@NOT-A-MIX")


def test_dotted_system_overrides_resolve_nested_fields():
    spec = RunSpec(benchmark="MM",
                   system_overrides={"geometry.ranks": 4, "channels": 1})
    resolved = spec.resolve_system()
    assert resolved.geometry.ranks == 4
    assert resolved.channels == 1
    # Untouched nested fields survive the replace.
    assert resolved.geometry.banks_per_group == \
        NIAGARA_SERVER.geometry.banks_per_group


def test_bad_system_override_rejected_at_build_time():
    with pytest.raises(ValueError, match="override"):
        RunSpec(benchmark="MM", system_overrides={"no_such_field": 1})


def test_slug_marks_overrides():
    assert RunSpec(benchmark="MM").slug == "MM-ddr4-server-mil-xauto-n5000-s0"
    spec = RunSpec(benchmark="MM", system_overrides=(("page_policy",
                                                      "closed"),))
    assert spec.slug.endswith("-o1m0")


def test_cache_key_stable_across_processes(tmp_path):
    """The content address must not depend on interpreter hash salting."""
    spec = RunSpec(benchmark="GUPS", policy="dbi", accesses_per_core=123,
                   mil_overrides={"epoch_len": 32})
    here = cache_key(spec, fingerprint="feedface")
    script = (
        "from repro.campaign.cache import cache_key\n"
        "from repro.campaign import RunSpec\n"
        "spec = RunSpec(benchmark='gups', policy='dbi',"
        " accesses_per_core=123, mil_overrides=(('epoch_len', 32),))\n"
        "print(cache_key(spec, fingerprint='feedface'))\n"
    )
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == here


def test_cache_path_honours_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
    spec = RunSpec(benchmark="MM")
    path = cache_path(spec, fingerprint="00")
    assert path.parent == tmp_path / "alt"
    assert path.name.startswith(spec.slug)
    assert not path.parent.exists()  # nothing created until a write
