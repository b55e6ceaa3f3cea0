"""End-to-end telemetry wiring through the simulator.

The two load-bearing guarantees:

* **Observation never steers.**  A run with a telemetry session attached
  produces a byte-identical :class:`RunSummary` (modulo the ``stats``
  side-table that the cache strips anyway) and the same cache payload.
* **Decision accounting is complete.**  Every issued burst reports
  exactly one decision mode, so the per-mode counters sum to the total
  burst count — which is also the sum of the summary's scheme mix.
"""

import json

import pytest

from repro.campaign import RunSpec, cache_path
from repro.campaign.cache import store
from repro.core.framework import run_spec
from repro.telemetry import TelemetrySession

SCALE = 80
FP = "test-fp"


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runs"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)


def _mil_spec() -> RunSpec:
    return RunSpec(benchmark="MM", policy="mil", accesses_per_core=SCALE)


class TestObservationDoesNotSteer:
    def test_summary_identical_with_and_without_telemetry(self):
        spec = _mil_spec()
        plain = run_spec(spec).to_dict()
        observed = run_spec(spec, telemetry=TelemetrySession()).to_dict()
        assert plain.pop("stats") == {}
        assert observed.pop("stats")["telemetry"]["bursts"] > 0
        assert json.dumps(plain, sort_keys=True) == \
            json.dumps(observed, sort_keys=True)

    def test_cache_payload_identical_with_and_without_telemetry(self):
        spec = _mil_spec()
        store(spec, run_spec(spec), wall_s=None, fingerprint=FP)
        plain_payload = cache_path(spec, FP).read_text()
        store(spec, run_spec(spec, telemetry=TelemetrySession()),
              wall_s=None, fingerprint=FP)
        assert cache_path(spec, FP).read_text() == plain_payload

    def test_telemetry_is_not_part_of_the_spec(self):
        # The cache key is a pure function of (spec, fingerprint);
        # RunSpec has no telemetry field to leak into it.
        spec = _mil_spec()
        assert "telemetry" not in spec.canonical()
        assert cache_path(spec, FP) == cache_path(_mil_spec(), FP)


class TestDecisionAccounting:
    def test_mode_counts_sum_to_total_bursts(self):
        session = TelemetrySession()
        summary = run_spec(_mil_spec(), telemetry=session)
        modes = session.decision_modes()
        total_bursts = sum(summary.scheme_counts.values())
        assert total_bursts > 0
        assert sum(modes.values()) == total_bursts
        assert set(modes) <= {"long", "base", "fallback"}
        table = summary.stats["telemetry"]
        assert table["bursts"] == total_bursts
        assert table["decision_modes"] == modes

    def test_fixed_policy_reports_only_fixed_mode(self):
        session = TelemetrySession()
        spec = RunSpec(benchmark="MM", policy="dbi",
                       accesses_per_core=SCALE)
        summary = run_spec(spec, telemetry=session)
        modes = session.decision_modes()
        assert set(modes) == {"fixed"}
        assert modes["fixed"] == sum(summary.scheme_counts.values())

    def test_write_optimizations_match_summary(self):
        session = TelemetrySession()
        summary = run_spec(_mil_spec(), telemetry=session)
        counted = sum(
            session.registry[name].value
            for name in session.registry.names()
            if name.endswith(".decision.write_opt")
        )
        assert counted == summary.write_optimized

    def test_act_counter_matches_summary_free_channel_state(self):
        session = TelemetrySession()
        run_spec(_mil_spec(), telemetry=session)
        table = session.stats_table()
        assert table["act_count"] > 0
        assert table["trace_events"] > 0
        assert table["trace_dropped"] == 0
