"""Integration tests: the paper's headline claims, in miniature.

These run small but complete simulations (trace -> caches -> DRAM ->
energy) and assert the *direction and rough magnitude* of every headline
result.  They are the repository's regression net: if a model change
breaks the reproduction, these fail before the benchmark harness does.
"""

import numpy as np
import pytest

from repro.core import run
from repro.dram import BusAuditor
from repro.system import NIAGARA_SERVER, SNAPDRAGON_MOBILE, simulate
from repro.workloads import build_trace

SCALE = 2000

BENCHES = ("GUPS", "CG", "MM", "SWIM")


@pytest.fixture(scope="module")
def runs():
    out = {}
    for bench in BENCHES:
        for policy in ("dbi", "milc", "mil"):
            out[(bench, policy)] = run(
                bench, NIAGARA_SERVER, policy, accesses_per_core=SCALE
            )
    return out


class TestHeadlineClaims:
    def test_mil_cuts_io_energy_substantially(self, runs):
        ratios = [
            runs[(b, "mil")].dram_energy["io"]
            / runs[(b, "dbi")].dram_energy["io"]
            for b in BENCHES
        ]
        assert np.mean(ratios) < 0.75  # paper: -49%; shape: deep cut

    def test_mil_cuts_dram_energy(self, runs):
        for b in BENCHES:
            assert (
                runs[(b, "mil")].dram_total_j
                < runs[(b, "dbi")].dram_total_j
            )

    def test_mil_performance_cost_is_small(self, runs):
        ratios = [
            runs[(b, "mil")].cycles / runs[(b, "dbi")].cycles
            for b in BENCHES
        ]
        assert np.mean(ratios) < 1.05
        assert max(ratios) < 1.12

    def test_mil_beats_milc_only_on_zeros(self, runs):
        total_mil = sum(runs[(b, "mil")].total_zeros for b in BENCHES)
        total_milc = sum(runs[(b, "milc")].total_zeros for b in BENCHES)
        assert total_mil <= total_milc

    def test_decision_logic_never_extends_over_ready_commands(self, runs):
        # The behavioural consequence: MiL's slowdown stays close to
        # MiLC-only's even though it sometimes doubles burst length.
        for b in BENCHES:
            mil = runs[(b, "mil")].cycles
            milc = runs[(b, "milc")].cycles
            assert mil <= milc * 1.05


class TestMobileSystem:
    def test_lpddr3_savings_deeper_than_ddr4(self):
        bench = "SWIM"
        ddr4 = {
            p: run(bench, NIAGARA_SERVER, p, accesses_per_core=SCALE)
            for p in ("dbi", "mil")
        }
        lp = {
            p: run(bench, SNAPDRAGON_MOBILE, p, accesses_per_core=SCALE)
            for p in ("dbi", "mil")
        }
        ddr4_saving = 1 - ddr4["mil"].dram_total_j / ddr4["dbi"].dram_total_j
        lp_saving = 1 - lp["mil"].dram_total_j / lp["dbi"].dram_total_j
        # Paper: 8% vs 17% — LPDDR3's IO-dominated budget saves more.
        assert lp_saving > ddr4_saving


class TestSimulationIntegrity:
    @pytest.mark.parametrize("policy", ["dbi", "mil", "3lwc"])
    def test_bus_protocol_never_violated(self, policy):
        from repro.coding import precompute_line_zeros
        from repro.core.policies import make_factory

        trace = build_trace("CG", NIAGARA_SERVER, accesses_per_core=SCALE)
        zeros = precompute_line_zeros(
            trace.line_data, ("dbi", "milc", "3lwc")
        )
        result = simulate(trace, NIAGARA_SERVER, make_factory(policy, zeros))
        for mc in result.controllers:
            problems = BusAuditor(mc.timing).check(mc.channel.transactions)
            assert problems == [], problems[:3]

    def test_refresh_served_during_long_runs(self, runs):
        result = runs[("GUPS", "dbi")]
        # GUPS runs long enough to cross tREFI several times; the cached
        # RunSummary doesn't carry refresh counts, so re-check quickly.
        trace = build_trace("GUPS", NIAGARA_SERVER, accesses_per_core=SCALE)
        sim = simulate(trace, NIAGARA_SERVER)
        if sim.cycles > 2 * NIAGARA_SERVER.timing.REFI:
            refreshes = sum(
                mc.channel.refresh_count for mc in sim.controllers
            )
            assert refreshes > 0
        assert result.cycles > 0

    def test_zeros_accounting_consistent(self, runs):
        # Transferred zeros can never exceed uncoded zeros... for DBI
        # they are strictly fewer than raw when data has dense-0 bytes.
        s = runs[("GUPS", "dbi")]
        assert 0 < s.total_zeros <= s.raw_zeros
