"""One module per table/figure of the paper's evaluation.

Each module exposes ``run_experiment(accesses_per_core=...)`` returning
an :class:`~repro.experiments.base.ExperimentResult`; running a module
as a script prints the reproduced rows next to the paper's claim.
``ALL_EXPERIMENTS`` maps experiment ids to those callables so the
benchmark harness and EXPERIMENTS.md generation can iterate them.

Simulation-backed modules additionally expose
``plan(accesses_per_core=...)`` returning the list of
:class:`~repro.campaign.RunSpec` values the figure consumes;
``EXPERIMENT_PLANS`` collects those so ``repro campaign`` can union an
entire figure set into one parallel, cache-warming campaign before the
tabulation step runs against pure cache hits.
"""

from . import (
    ext_design_space,
    ext_lpddr3_sensitivity,
    validation,
    ext_intermediate_code,
    ext_powerdown,
    ext_x4_width,
    fig01_power_breakdown,
    fig02_always_lwc,
    fig04_idle_gaps,
    fig05_pending,
    fig06_slack,
    fig07_optimal_lwc,
    fig16_performance,
    fig17_zeroes,
    fig18_energy_breakdown,
    fig19_system_energy,
    fig20_burst_length,
    fig21_lookahead,
    fig22_scheme_mix,
    table4_codec_cost,
)
from .base import ExperimentResult
from .runner import (
    EXPERIMENT_ACCESSES_PER_CORE,
    cache_dir,
    gather,
)

_MODULES = {
    "fig01": fig01_power_breakdown,
    "fig02": fig02_always_lwc,
    "fig04": fig04_idle_gaps,
    "fig05": fig05_pending,
    "fig06": fig06_slack,
    "fig07": fig07_optimal_lwc,
    "table4": table4_codec_cost,
    "fig16": fig16_performance,
    "fig17": fig17_zeroes,
    "fig18": fig18_energy_breakdown,
    "fig19": fig19_system_energy,
    "fig20": fig20_burst_length,
    "fig21": fig21_lookahead,
    "fig22": fig22_scheme_mix,
    # Extension studies (paper Sections 4.1, 7.3, and 7.5.2 directions).
    "ext_x4": ext_x4_width,
    "ext_powerdown": ext_powerdown,
    "ext_design_space": ext_design_space,
    "ext_intermediate": ext_intermediate_code,
    "validation": validation,
    "ext_lpddr3": ext_lpddr3_sensitivity,
}

ALL_EXPERIMENTS = {
    name: module.run_experiment for name, module in _MODULES.items()
}

# Experiment id -> plan(accesses_per_core=...) -> list[RunSpec], for the
# modules whose figures are assembled from cached campaign runs (the
# analytic and internals-inspecting ones have no plan).
EXPERIMENT_PLANS = {
    name: module.plan
    for name, module in _MODULES.items()
    if hasattr(module, "plan")
}

__all__ = [
    "ALL_EXPERIMENTS",
    "EXPERIMENT_PLANS",
    "ExperimentResult",
    "EXPERIMENT_ACCESSES_PER_CORE",
    "cache_dir",
    "gather",
]
