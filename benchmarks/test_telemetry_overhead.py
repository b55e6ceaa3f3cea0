"""Guard: disabled telemetry adds no measurable cost to hot paths.

Telemetry is off unless a run is handed a ``TelemetrySession`` (there
is no process-wide switch).  Two checks about that default:

* A dormant instrumentation site — the single ``probe is None`` test
  the DRAM channel and decision policies pay per event — must stay in
  single-digit nanoseconds next to the work it guards (min of repeats,
  so one scheduler hiccup cannot fake a regression).
* A simulation observed by a session summarises byte-identically to an
  unobserved one.
"""

import time


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_dormant_probe_site_costs_nanoseconds():
    """The per-event cost of an unwired site is one identity test."""
    probe = None
    events = 1_000_000

    def guarded():
        hits = 0
        for _ in range(events):
            if probe is not None:  # the exact pattern used in the models
                hits += 1
        return hits

    best = _best_of(guarded, repeats=5)
    per_event_ns = best / events * 1e9
    # An empty Python loop iteration alone is ~20-50 ns; budget 200 ns
    # so the guard only trips on real regressions (attribute chains,
    # dict lookups, function calls) and not on slow CI machines.
    assert per_event_ns < 200, (
        f"dormant probe site costs {per_event_ns:.0f} ns/event"
    )


def test_simulation_summary_identical_with_telemetry_off_and_on():
    """Cross-check at simulation scale: observation never steers.

    Belt-and-braces companion to the unit test of the same name — run
    here so the overhead suite fails loudly if instrumentation ever
    perturbs results rather than timing.
    """
    from repro.campaign import RunSpec
    from repro.core.framework import run_spec
    from repro.telemetry import TelemetrySession

    spec = RunSpec(benchmark="GUPS", policy="mil", accesses_per_core=80)
    plain = run_spec(spec).to_dict()
    observed = run_spec(spec, telemetry=TelemetrySession()).to_dict()
    plain.pop("stats")
    observed.pop("stats")
    assert plain == observed
