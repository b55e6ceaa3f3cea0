"""fig16-slice: a cold then warm campaign pass over a Figure 16 slice.

The plan is {GUPS, SWIM, MM, STRMATCH} x {ddr4-server, lpddr3-mobile}
x {dbi, cafo2, mil}: 24 specs at 1000 accesses/core.  Each round runs
a cold ``CampaignRunner(jobs=min(2, nproc))`` pass in a fresh
``REPRO_CACHE_DIR`` with the process caches cleared, then a warm pass
of the same plan, which the on-disk cache serves.  This is the
figure-reproduction path: streaming row hits, write drains and LPDDR3
timing beside GUPS, three policies sharing each trace, the pool fan-out
and the cache.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager

from common import (
    DigestCheck, clock, mean, median, p90, ratio, summary_digest,
)

NAME = "fig16-slice"
BENCHMARKS = ("GUPS", "SWIM", "MM", "STRMATCH")
SYSTEMS = ("ddr4-server", "lpddr3-mobile")
POLICIES = ("dbi", "cafo2", "mil")
ACCESSES_PER_CORE = 1000
BYPASSED = ("serve.",)


def plan(seed: int) -> list:
    from repro.campaign import RunSpec

    return [
        RunSpec(bench, system, policy, accesses_per_core=ACCESSES_PER_CORE,
                seed=seed)
        for bench in BENCHMARKS
        for system in SYSTEMS
        for policy in POLICIES
    ]


class State:
    def __init__(self, seed: int, scratch) -> None:
        from repro.campaign import model_fingerprint

        model_fingerprint()  # part of set-up: every cache key needs it
        self.scratch = scratch
        self.jobs = min(2, os.cpu_count() or 1)
        self.plan = plan(seed)
        self.digests: DigestCheck | None = None


@contextmanager
def session(seed: int, scratch):
    yield State(seed, scratch)


def _pass(state, cache_dir, telemetry=None):
    """One CampaignRunner pass; returns (runner, results, events, t0, t1)."""
    from repro.campaign import CampaignRunner

    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    events: list = []
    runner = CampaignRunner(jobs=state.jobs, sink=events.append,
                            strict=False, telemetry=telemetry)
    t0 = clock()
    results = runner.run(state.plan)
    t1 = clock()
    return runner, results, events, t0, t1


def _check_pass(state, tally, results, runner, where) -> list:
    """Count every spec as attempted; return the summaries in hand."""
    tally.attempted += len(state.plan)
    for spec, error in runner.failures:
        tally.fail(f"{where}: {spec.slug} failed: {error}")
    failed = {spec for spec, _ in runner.failures}
    rows = []
    for spec in state.plan:
        summary = results.get(spec)
        if summary is None:
            if spec not in failed:
                tally.fail(f"{where}: no row for {spec.slug}")
            continue
        state.digests.check(spec.slug, summary_digest(summary.to_dict()),
                            where)
        rows.append(summary)
    return rows


class _Round:
    def __init__(self) -> None:
        self.cold_s = 0.0
        self.warm_s = 0.0
        self.row_s: list[float] = []  # pass start -> row in hand
        self.spec_wall: list[float] = []
        self.records = 0
        self.phases: dict = {}
        self.counters: dict = {}


def _round(state, index, tally, tracer=None) -> _Round:
    from repro.coding.zerocache import reset_global_cache
    from repro.workloads.benchmarks import clear_trace_cache

    out = _Round()
    cache_dir = state.scratch / f"round{index}"
    clear_trace_cache()  # forked workers inherit the parent's caches
    reset_global_cache()
    telemetry = None
    if tracer is not None:
        from repro.campaign import CampaignRunner
        from repro.telemetry import TelemetrySession

        telemetry = TelemetrySession(label=f"round{index}",
                                     time_unit="seconds")
        tracer.patch(CampaignRunner, "run", "campaign")
    try:
        with _maybe(tracer, "cold pass", index) as cold_span:
            runner, results, events, t0, t1 = _pass(
                state, cache_dir, telemetry)
        out.cold_s = t1 - t0
        for event in events:
            if event.kind == "finished":
                out.row_s.append(event.ts - t0)
        for summary in _check_pass(state, tally, results, runner, "cold"):
            out.spec_wall.append(summary.stats["wall_s"])
            out.records += summary.trace_records
        out.counters = dict(runner.counters)
        with _maybe(tracer, "warm pass", index):
            warm, warm_results, _, w0, w1 = _pass(state, cache_dir)
        out.warm_s = w1 - w0
        _check_pass(state, tally, warm_results, warm, "warm")
        for key in ("specs", "cache_hits", "retries"):
            out.counters[key] += warm.counters[key]
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(cache_dir, ignore_errors=True)
    if telemetry is not None:
        _add_phases(tracer, telemetry, cold_span, out)
    return out


@contextmanager
def _maybe(tracer, name, index):
    if tracer is None:
        yield None
    else:
        with tracer.span(name, "campaign", req=f"round{index}") as span:
            yield span


def _add_phases(tracer, telemetry, cold_span, out: _Round) -> None:
    """Hang the campaign probe's phase timers under their runner span."""
    cold_run = next(s for s in tracer.spans
                    if s.parent == cold_span.id
                    and s.name == "CampaignRunner.run")
    for event in telemetry.trace.events():
        if event.category != "phase":
            continue
        phase = event.name.split(".", 1)[1]
        out.phases[phase] = out.phases.get(phase, 0.0) + event.dur
        tracer.add(event.name, "campaign", event.ts, event.ts + event.dur,
                   cold_run)


def measure(state, seconds: float, tally, pins: dict,
            tracer=None) -> tuple[dict, list[str]]:
    """Rounds of (cold, warm) passes for ``seconds``.

    With a tracer, rounds alternate untraced and traced, so the
    tracing overhead is measured on the same plan.
    """
    state.digests = DigestCheck(tally, pins)
    plain: list[_Round] = []
    traced: list[_Round] = []
    start = clock()
    index = 0
    while (clock() - start < seconds or not plain
           or (tracer is not None and not traced)):
        use_tracer = tracer is not None and len(plain) > len(traced)
        result = _round(state, index, tally,
                        tracer if use_tracer else None)
        (traced if use_tracer else plain).append(result)
        index += 1

    row_s = [t for r in plain for t in r.row_s]
    spec_wall = [w for r in plain for w in r.spec_wall]
    cold = [r.cold_s for r in plain]
    metrics = {
        # The plan mixes spec sizes, so a median would jump between
        # them; the mean is the worker time per spec.
        "run_s": mean(spec_wall),
        "records_per_s": ratio(sum(r.records for r in plain),
                               sum(spec_wall)),
        "campaign_s": median(cold),
        "job_s.p50": median(row_s),
        "job_s.p90": p90(row_s),
        "jobs_per_s": ratio(len(row_s), sum(cold)),
    }
    report = [f"rounds {len(plain)} untraced, {len(traced)} traced; "
              f"cold passes {' '.join(f'{c:.3f}' for c in cold)} s"]
    report += state.digests.report()
    if tracer is not None:
        metrics.update(_campaign_metrics(state, traced))
        traced_cold = mean([r.cold_s for r in traced])
        metrics["trace.traced_s"] = traced_cold
        metrics["trace.overhead_s"] = traced_cold - mean(cold)
    return metrics, report


def _campaign_metrics(state, rounds: list[_Round]) -> dict:
    execute = sum(r.phases.get("execute", 0.0) for r in rounds)
    wall = sum(sum(r.spec_wall) for r in rounds)
    return {
        "campaign.scan_s": mean([r.phases.get("scan", 0.0) for r in rounds]),
        "campaign.execute_s": mean(
            [r.phases.get("execute", 0.0) for r in rounds]),
        "campaign.pool_efficiency": ratio(wall, state.jobs * execute),
        "campaign.spec_s.p50": median(
            [w for r in rounds for w in r.spec_wall]),
        "campaign.warm_s": mean([r.warm_s for r in rounds]),
        "campaign.cache_hit_ratio": ratio(
            sum(r.counters["cache_hits"] for r in rounds),
            sum(r.counters["specs"] for r in rounds)),
        "campaign.retries": sum(r.counters["retries"] for r in rounds),
    }


def verify(state, tally, tracer=None):
    """Traced run: replay the plan in-process, layer by layer.

    Pool workers are other processes, so the run-level layers of this
    workload are taken from a serial in-process replay of the same
    plan, outside every timed pass; its rows must match the pool's.
    """
    if tracer is None:
        return {}, []
    from layers import replay

    return replay(state.plan, tally, state.digests, tracer)
