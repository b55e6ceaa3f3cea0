"""Run-level layers of ``core.framework.run_spec``, timed from outside.

:func:`patch_run_layers` wraps the names ``core.framework`` calls, so
that one ``run_spec`` span splits into the workload, coding, system,
energy and analysis layers; what is left is the framework's own self
time (``core``).  Counts come from the objects those calls return and
from ``ZeroTableCache.stats()``.  :class:`RunLedger` turns the spans and
counts of one or more passes into the per-layer metrics.
"""

from __future__ import annotations

from common import mean, ratio, summary_digest

# Layer of each framework name; raw_line_zeros is the uncoded zero
# count, so it is charged to the coding layer with the zero tables.
RUN_LAYER_NAMES = {
    "build_trace": "workloads",
    "precompute_line_zeros": "coding",
    "raw_line_zeros": "coding",
    "simulate": "system",
    "idle_gap_histogram": "analysis",
    "slack_histogram": "analysis",
    "pending_split": "analysis",
}
ENERGY_MODELS = ("DramEnergyModel", "SystemEnergyModel")

# Per-layer time metric for each run-level layer (self seconds).
LAYER_TIME_METRICS = {
    "workloads": "workloads.build_trace_s",
    "coding": "coding.zero_tables_s",
    "system": "system.simulate_s",
    "energy": "energy.evaluate_s",
    "analysis": "analysis.stats_s",
    "core": "core.run_self_s",
}

# Exact counts: identical on every run of the same spec, and a change
# that only speeds up the simulator must leave them identical.
EXACT_COUNTS = ("sim_cycles", "dram_cmds", "event_pops", "trace_records")


def _trace_counts(span, trace) -> None:
    span.attrs["trace_records"] = int(trace.total_records)


def _sim_counts(span, result) -> None:
    """Copy the simulator's counters off the returned SimulationResult."""
    dram_cmds = busy = hits = misses = 0
    for mc in result.controllers:
        ch = mc.channel
        dram_cmds += (ch.activate_count + ch.read_count + ch.write_count
                      + ch.refresh_count)
        busy += ch.busy_cycles
        hits += mc.cand_bank_hits
        misses += mc.cand_bank_misses
    stats = result.stats
    span.attrs.update(
        sim_cycles=int(result.cycles),
        dram_cmds=dram_cmds,
        event_pops=int(stats.get("event_queue_pops", 0)),
        event_stale=int(stats.get("event_queue_stale", 0)),
        cand_hits=hits,
        cand_misses=misses,
        forwarded_reads=int(stats.get("forwarded_reads", 0)),
        coalesced_writes=int(stats.get("coalesced_writes", 0)),
        busy_cycles=busy,
        channel_cycles=int(result.cycles) * len(result.controllers),
    )


def patch_run_layers(tracer) -> None:
    from repro.core import framework

    for name, layer in RUN_LAYER_NAMES.items():
        on_return = {"build_trace": _trace_counts,
                     "simulate": _sim_counts}.get(name)
        tracer.patch(framework, name, layer, on_return=on_return)
    for model in ENERGY_MODELS:
        tracer.patch(getattr(framework, model), "evaluate", "energy")


class RunLedger:
    """Per-layer times and counts of traced ``run_spec`` passes.

    A pass is one set of runs (one cold GUPS run, or a whole replayed
    plan); runs fold into the pass opened last.  Times are averaged
    over passes.  Counts must repeat exactly from pass to pass, and
    :meth:`metrics` reports the first pass's.
    """

    def __init__(self) -> None:
        self.passes: list[dict] = []

    def new_pass(self) -> None:
        self.passes.append({"times": {}, "counts": {}, "wall": 0.0})

    def add_run(self, tracer, root, zero_stats: dict) -> None:
        """Fold one ``run_spec`` root span (and its subtree) in."""
        record = self.passes[-1]
        for layer, secs in tracer.layer_self_times([root]).items():
            record["times"][layer] = record["times"].get(layer, 0.0) + secs
        record["wall"] += root.dur
        counts = record["counts"]
        for key, value in zero_stats.items():
            counts[key] = counts.get(key, 0) + value
        kids = tracer.children()
        todo = [root]
        while todo:
            span = todo.pop()
            for key, value in span.attrs.items():
                counts[key] = counts.get(key, 0) + value
            todo.extend(kids.get(span.id, ()))

    def first_counts(self) -> dict:
        return self.passes[0]["counts"] if self.passes else {}

    def counts_agree(self) -> bool:
        return all(p["counts"] == self.first_counts() for p in self.passes)

    def metrics(self) -> dict:
        out = {name: 0.0 for name in LAYER_TIME_METRICS.values()}
        for record in self.passes:
            for layer, secs in record["times"].items():
                out[LAYER_TIME_METRICS[layer]] += secs / len(self.passes)
        out.update(_count_metrics(self.first_counts()))
        out["system.us_per_dram_cmd"] = ratio(
            out["system.simulate_s"] * 1e6, out["controller.dram_cmds"])
        return out

    def traced_wall(self) -> float:
        """Mean traced ``run_spec`` wall time per pass."""
        return mean([p["wall"] for p in self.passes])


def _count_metrics(c: dict) -> dict:
    return {
        "workloads.trace_records": c.get("trace_records", 0),
        "coding.zero_cache_hit_ratio": ratio(
            c.get("zero_hits", 0),
            c.get("zero_hits", 0) + c.get("zero_misses", 0)),
        "system.event_pops": c.get("event_pops", 0),
        "system.event_stale_ratio": ratio(
            c.get("event_stale", 0), c.get("event_pops", 0)),
        "system.sim_cycles": c.get("sim_cycles", 0),
        "controller.dram_cmds": c.get("dram_cmds", 0),
        "controller.cand_memo_hit_ratio": ratio(
            c.get("cand_hits", 0),
            c.get("cand_hits", 0) + c.get("cand_misses", 0)),
        "controller.forwarded_reads": c.get("forwarded_reads", 0),
        "controller.coalesced_writes": c.get("coalesced_writes", 0),
        "dram.bus_utilization": ratio(
            c.get("busy_cycles", 0), c.get("channel_cycles", 0)),
    }


def exact_report(ledger: RunLedger) -> list[str]:
    """The exact-statistics lines a simulator-only change must keep."""
    counts = ledger.first_counts()
    return [f"exact {name} {counts.get(name, 0)}" for name in EXACT_COUNTS]


def traced_run_spec(tracer, ledger: RunLedger, spec, req=None):
    """Run ``spec`` under a ``run_spec`` span; fold it into the ledger."""
    from repro.coding.zerocache import global_cache
    from repro.core import framework

    before = global_cache().stats()
    with tracer.span("run_spec", "core", req=req) as root:
        summary = framework.run_spec(spec)
    after = global_cache().stats()
    ledger.add_run(tracer, root, {
        "zero_hits": after["hits"] - before["hits"],
        "zero_misses": after["misses"] - before["misses"],
    })
    return summary


def replay(specs, tally, digests, tracer=None) -> tuple[dict, list[str]]:
    """Run ``specs`` in-process with cold caches, outside any timed loop.

    Each output must match the same spec's output on the other paths
    (``digests``).  With a tracer, the runs are split into layers and
    the per-layer metrics and exact-statistics lines are returned.
    """
    from repro.coding.zerocache import reset_global_cache
    from repro.core import framework
    from repro.workloads.benchmarks import clear_trace_cache

    clear_trace_cache()
    reset_global_cache()
    ledger = RunLedger()
    ledger.new_pass()
    if tracer is not None:
        patch_run_layers(tracer)
    try:
        for spec in specs:
            tally.attempted += 1
            try:
                if tracer is None:
                    summary = framework.run_spec(spec)
                else:
                    summary = traced_run_spec(tracer, ledger, spec,
                                              req=f"replay:{spec.slug}")
            except Exception as exc:  # a run that raises is a failed op
                tally.fail(f"replay: {spec.slug} raised {exc!r}")
                continue
            digests.check(spec.slug, summary_digest(summary.to_dict()),
                          "in-process replay")
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is None:
        return {}, []
    return ledger.metrics(), exact_report(ledger)
