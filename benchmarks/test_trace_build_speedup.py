"""Gate: the closed-form L2 warm-up pays on a whole trace build.

:func:`tests.warmup_oracle.eager_warmup` swaps the fill-by-fill L2
warm-up back in for :meth:`repro.system.Cache.warm`, which computes
which lines each set keeps and builds a set's dict only on its first
lookup.  The hypothesis suite proves the two leave identical caches;
this gate proves the closed form is also *faster* where it matters:
a cold ``build_trace`` at 150 accesses/core on ``ddr4-server``, the
size of a ``repro serve`` job's fresh spec, where the eager warm-up
inserts 65,544 lines the trace never touches.  2x is the floor; on a
shared 2-vCPU host the measured gap is 3.7-5.4x.

Run from the repository root so the ``tests`` package imports::

    PYTHONPATH=src python -m pytest benchmarks/test_trace_build_speedup.py
"""

import pytest

from repro.bench import measure
from repro.system import NIAGARA_SERVER
from repro.workloads.benchmarks import build_trace
from tests.warmup_oracle import eager_warmup

MIN_SPEEDUP = 2.0
ATTEMPTS = 3  # whole-comparison retries before failing
PANEL = ("MM", "SWIM", "CG", "GUPS")
ACCESSES_PER_CORE = 150


def _build_panel():
    for name in PANEL:
        build_trace(name, NIAGARA_SERVER,
                    accesses_per_core=ACCESSES_PER_CORE, use_cache=False)


def test_closed_form_warmup_speeds_up_trace_build():
    best = 0.0
    for _ in range(ATTEMPTS):
        t_lazy = measure(_build_panel, repeats=5, warmup=1).min_ns
        with eager_warmup():
            t_eager = measure(_build_panel, repeats=5, warmup=1).min_ns
        speedup = t_eager / t_lazy
        best = max(best, speedup)
        if speedup >= MIN_SPEEDUP:
            return
    pytest.fail(
        f"trace-build speedup {best:.2f}x over the eager L2 warm-up is "
        f"below the {MIN_SPEEDUP}x gate"
    )
