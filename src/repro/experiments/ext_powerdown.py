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

from ..coding.pipeline import precompute_line_zeros
from ..core.framework import energy_params_for
from ..core.policies import make_factory, sent_schemes
from ..energy.dram_power import DramEnergyModel
from ..system.machine import NIAGARA_SERVER
from ..system.simulator import simulate
from ..workloads.benchmarks import BENCHMARK_ORDER, build_trace
from .base import ExperimentResult
from .runner import EXPERIMENT_ACCESSES_PER_CORE

__all__ = ["run_experiment"]


def run_experiment(
    accesses_per_core: int = EXPERIMENT_ACCESSES_PER_CORE,
) -> ExperimentResult:
    params = energy_params_for(NIAGARA_SERVER)
    plain = DramEnergyModel(params)
    powerdown = DramEnergyModel(params, fast_powerdown=True)
    # Only the tables the two policies can send (dbi; milc and 3lwc).
    schemes = tuple(dict.fromkeys(sent_schemes("dbi") + sent_schemes("mil")))

    rows = []
    savings_plain = []
    savings_pd = []
    for bench in BENCHMARK_ORDER:
        trace = build_trace(bench, NIAGARA_SERVER,
                            accesses_per_core=accesses_per_core)
        zeros = precompute_line_zeros(trace.line_data, schemes,
                                      digest=trace.line_digest)
        base = simulate(trace, NIAGARA_SERVER, make_factory("dbi", zeros))
        mil = simulate(trace, NIAGARA_SERVER, make_factory("mil", zeros))

        s_plain = 1 - (
            plain.evaluate(mil, zeros).total
            / plain.evaluate(base, zeros).total
        )
        s_pd = 1 - (
            powerdown.evaluate(mil, zeros).total
            / powerdown.evaluate(base, zeros).total
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
