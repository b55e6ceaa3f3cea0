"""gups-mil-cold: cold GUPS/mil runs at experiment scale.

Each operation is what a fresh ``repro run GUPS --policy mil`` pays:
the process-wide trace cache and zero-table cache are cleared, then
``core.framework.run_spec`` runs GUPS under MiL on ``ddr4-server`` at
5000 accesses/core.  Random read-modify-write keeps the controller
busy with row conflicts, so the ``system`` layer (event loop,
controller, DRAM channel) does most of the work, and no cache of any
layer is reused between operations.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from common import (
    DigestCheck, clock, mean, median, p90, ratio, summary_digest,
)

NAME = "gups-mil-cold"
ACCESSES_PER_CORE = 5000
# Layers this workload never enters; their per-layer metrics read 0.
BYPASSED = ("campaign.", "serve.")


def plan(seed: int) -> list:
    from repro.campaign import RunSpec

    return [RunSpec("GUPS", "ddr4-server", "mil",
                    accesses_per_core=ACCESSES_PER_CORE, seed=seed)]


class State:
    def __init__(self, seed: int, scratch) -> None:
        os.environ["REPRO_CACHE_DIR"] = str(scratch / "runs")
        self.spec = plan(seed)[0]


@contextmanager
def session(seed: int, scratch):
    yield State(seed, scratch)


def _cold_run(state, tracer=None, ledger=None):
    """Clear the caches, run the spec; returns (summary, op_s, run_s)."""
    from repro.coding.zerocache import reset_global_cache
    from repro.core import framework
    from repro.workloads.benchmarks import clear_trace_cache

    from layers import traced_run_spec

    t0 = clock()
    clear_trace_cache()
    reset_global_cache()
    t1 = clock()
    if tracer is None:
        summary = framework.run_spec(state.spec)
    else:
        ledger.new_pass()
        summary = traced_run_spec(tracer, ledger, state.spec)
    t2 = clock()
    return summary, t2 - t0, t2 - t1


def measure(state, seconds: float, tally, pins: dict,
            tracer=None) -> tuple[dict, list[str]]:
    """Repeat cold runs for ``seconds``; alternate traced ones if asked.

    With a tracer, even-numbered runs are untraced and odd-numbered
    ones traced, so the tracing overhead is measured on the same spec
    in the same process.
    """
    from layers import RunLedger, exact_report, patch_run_layers

    digests = DigestCheck(tally, pins)
    ledger = RunLedger()
    plain: list[tuple[float, float, int]] = []  # (op_s, run_s, records)
    traced: list[float] = []
    start = clock()
    while (clock() - start < seconds or not plain
           or (tracer is not None and not traced)):
        use_tracer = tracer is not None and len(plain) > len(traced)
        tally.attempted += 1
        try:
            if use_tracer:
                patch_run_layers(tracer)
                try:
                    summary, op_s, run_s = _cold_run(state, tracer, ledger)
                finally:
                    tracer.restore()
            else:
                summary, op_s, run_s = _cold_run(state)
        except Exception as exc:  # a run that raises is a failed op
            tally.fail(f"{state.spec.slug} raised {exc!r}")
            if clock() - start > seconds:
                break
            continue
        digests.check(state.spec.slug, summary_digest(summary.to_dict()),
                      "cold run")
        if use_tracer:
            traced.append(run_s)
        else:
            plain.append((op_s, run_s, summary.trace_records))
    loop_s = clock() - start

    op_walls = [op for op, _, _ in plain]
    run_walls = [run for _, run, _ in plain]
    metrics = {
        "run_s": median(run_walls),
        "records_per_s": ratio(sum(r for _, _, r in plain), sum(run_walls)),
        "campaign_s": median(op_walls),
        "job_s.p50": median(op_walls),
        "job_s.p90": p90(op_walls),
        "jobs_per_s": ratio(len(plain) + len(traced), loop_s),
    }
    report = [f"runs {len(plain)} untraced, {len(traced)} traced"]
    report += digests.report()
    if tracer is not None:
        tally.check(ledger.counts_agree(),
                    "exact counts differ between runs of one spec")
        metrics.update(ledger.metrics())
        # Per-layer self times sum to traced_s; the untraced runs of
        # the same spec give the overhead tracing added to it.
        metrics["trace.traced_s"] = ledger.traced_wall()
        metrics["trace.overhead_s"] = (
            ledger.traced_wall() - mean(run_walls))
        report += exact_report(ledger)
    return metrics, report
