"""Regenerate pins.json: the output digest of every spec the benchmark
runs at the default seed (0).

    python3 perfbench/pins.py

Each spec runs once, in-process.  Run this only for a change that is
meant to alter simulation results; a change that only makes the
program faster must leave every pin as it is, and the benchmark counts
any output that differs from its pin as a failed operation.
"""

import itertools
import json
import os
import sys

from common import PINS, scratch_dir, summary_digest
from run import require_program

# Jobs of serve-closed-loop whose fresh spec is pinned; a run on a
# machine fast enough to serve more still checks the rest across paths.
PINNED_JOBS = 300


def main() -> int:
    require_program()
    import fig16
    import gups
    import serveloop
    from repro.core.framework import run_spec
    from repro.workloads.benchmarks import clear_trace_cache

    plans = {
        gups.NAME: gups.plan(0),
        fig16.NAME: fig16.plan(0),
        serveloop.NAME: [
            specs[0]
            for specs in itertools.islice(serveloop.job_plan(0),
                                          PINNED_JOBS)
        ],
    }
    pins = {}
    with scratch_dir("pins-") as scratch:
        os.environ["REPRO_CACHE_DIR"] = str(scratch)
        for name, specs in plans.items():
            pins[name] = {}
            for spec in specs:
                summary = run_spec(spec)
                pins[name][spec.slug] = summary_digest(summary.to_dict())
            clear_trace_cache()
            print(f"{name}: {len(specs)} specs pinned", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
