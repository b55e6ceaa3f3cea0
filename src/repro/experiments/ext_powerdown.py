"""Extension study: fast power-down modes amplify MiL's relative savings.

Section 7.3: "the new power modes proposed by Malladi et al. can reduce
background power, and help increase the percentage of system energy
savings that MiL can provide."  DDR4's large always-on background slice
dilutes MiL's IO cut; if idle ranks could drop into a fast power-down
state, the background slice shrinks and the *same* absolute IO savings
become a larger fraction of DRAM energy.

This experiment re-evaluates the DBI and MiL runs under both background
models and reports the DRAM-savings percentage each way.
"""

from __future__ import annotations

import numpy as np

from ..core.framework import energy_params_for, simulate_run
from ..energy.dram_power import DramEnergyModel
from ..system.machine import NIAGARA_SERVER
from ..workloads.benchmarks import BENCHMARK_ORDER
from .base import ExperimentResult
from .runner import EXPERIMENT_ACCESSES_PER_CORE

__all__ = ["run_experiment"]


def run_experiment(
    accesses_per_core: int = EXPERIMENT_ACCESSES_PER_CORE,
) -> ExperimentResult:
    params = energy_params_for(NIAGARA_SERVER)
    plain = DramEnergyModel(params)
    powerdown = DramEnergyModel(params, fast_powerdown=True)

    rows = []
    savings_plain = []
    savings_pd = []
    for bench in BENCHMARK_ORDER:
        # Both runs replay the same (process-cached) trace.
        _, base_zeros, base = simulate_run(
            bench, NIAGARA_SERVER, "dbi", accesses_per_core=accesses_per_core
        )
        _, mil_zeros, mil = simulate_run(
            bench, NIAGARA_SERVER, "mil", accesses_per_core=accesses_per_core
        )

        s_plain = 1 - (
            plain.evaluate(mil, mil_zeros).total
            / plain.evaluate(base, base_zeros).total
        )
        s_pd = 1 - (
            powerdown.evaluate(mil, mil_zeros).total
            / powerdown.evaluate(base, base_zeros).total
        )
        rows.append([bench, s_plain, s_pd])
        savings_plain.append(s_plain)
        savings_pd.append(s_pd)

    result = ExperimentResult(
        experiment="ext_powerdown",
        title=(
            "Extension: MiL DRAM-energy savings without / with fast "
            "power-down background (DDR4 server)"
        ),
        headers=["benchmark", "savings_plain", "savings_powerdown"],
        rows=rows,
        paper_claim=(
            "new DRAM power modes reduce background power and increase "
            "the percentage savings MiL provides (Section 7.3)"
        ),
    )
    result.observations["mean_savings_plain"] = float(np.mean(savings_plain))
    result.observations["mean_savings_powerdown"] = float(np.mean(savings_pd))
    return result


if __name__ == "__main__":
    print(run_experiment().format())
