"""Suite validation: the evidence behind DESIGN.md's substitution claim.

The reproduction replaces SESC + real binaries with synthetic workloads;
the claim is that each synthetic benchmark reproduces the two properties
MiL's results depend on — memory-access behaviour and data-value
statistics.  This experiment characterises every benchmark on the DDR4
baseline so that claim is *measured*, not asserted:

* memory behaviour: bus utilisation, L1/L2 miss rates, row-buffer hit
  rate, read/write/prefetch mix, mean queue latency;
* data statistics: zero-byte fraction and per-line DBI zeros of the
  actual transferred payloads.

Runs fresh (uncached, through :func:`~repro.core.framework.simulate_run`)
because it reaches into simulator internals that the cached summaries do
not carry.
"""

from __future__ import annotations

import numpy as np

from ..core.framework import simulate_run
from ..system.machine import NIAGARA_SERVER
from ..workloads.benchmarks import BENCHMARK_ORDER
from .base import ExperimentResult
from .runner import EXPERIMENT_ACCESSES_PER_CORE

__all__ = ["run_experiment"]


def run_experiment(
    accesses_per_core: int = EXPERIMENT_ACCESSES_PER_CORE,
) -> ExperimentResult:
    rows = []
    utils = []
    for bench in BENCHMARK_ORDER:
        trace, zeros, result = simulate_run(
            bench, NIAGARA_SERVER, "dbi", accesses_per_core=accesses_per_core
        )

        bursts = sum(
            mc.channel.read_count + mc.channel.write_count
            for mc in result.controllers
        )
        activates = sum(
            mc.channel.activate_count for mc in result.controllers
        )
        row_hit_rate = 1 - activates / bursts if bursts else 0.0

        total = trace.total_records or 1
        zero_bytes = float((trace.line_data == 0).mean())

        rows.append([
            bench,
            result.bus_utilization,
            trace.l1_miss_rate,
            trace.l2_miss_rate,
            row_hit_rate,
            trace.demand_reads / total,
            trace.writes / total,
            trace.prefetches / total,
            zero_bytes,
            float(zeros["dbi"].mean()),
        ])
        utils.append(result.bus_utilization)

    result = ExperimentResult(
        experiment="validation",
        title=(
            "Suite characterisation on the DDR4 baseline (the measured "
            "basis for DESIGN.md's substitution argument)"
        ),
        headers=[
            "benchmark", "bus_util", "l1_miss", "l2_miss", "row_hit",
            "read%", "write%", "prefetch%", "zero_bytes", "dbi_zeros/line",
        ],
        rows=rows,
        paper_claim=(
            "Table 3's suite spans light (MM, STRMATCH) to "
            "memory-intensive (CG, GUPS) with diverse data statistics"
        ),
    )
    result.observations["util_spread"] = float(max(utils) - min(utils))
    result.observations["min_util"] = float(min(utils))
    result.observations["max_util"] = float(max(utils))
    return result


if __name__ == "__main__":
    print(run_experiment().format())
