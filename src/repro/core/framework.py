"""End-to-end MiL runs: trace -> simulation -> energy -> summary.

This is the top of the public API: :func:`run` executes one
(benchmark, system, policy) combination and returns a JSON-serialisable
:class:`RunSummary` with everything the paper's figures need —
execution time, zero counts, scheme mix, energy breakdowns, and the
Figures 4-6 bus statistics.  The experiment modules and the benchmark
harness are thin loops around it.

Policy names (this table is generated from :mod:`repro.core.policies`
at import time, so it always matches the registered set):

"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..analysis.metrics import (
    idle_gap_histogram,
    pending_split,
    slack_histogram,
)
from ..coding.pipeline import precompute_line_zeros, raw_line_zeros
from ..energy.constants import (
    DDR4_ENERGY,
    LPDDR3_ENERGY,
    MOBILE_SYSTEM_ENERGY,
    SERVER_SYSTEM_ENERGY,
)
from ..energy.dram_power import DramEnergyModel
from ..energy.system_power import SystemEnergyModel
from ..system.machine import NIAGARA_SERVER, SNAPDRAGON_MOBILE, SystemConfig
from ..system.simulator import simulate
from ..workloads.benchmarks import DEFAULT_ACCESSES_PER_CORE, build_trace
from .decision import MiLPolicy
from .policies import get_policy, make_factory, policy_table, sent_schemes

__all__ = ["RunSummary", "run", "run_spec", "simulate_run",
           "energy_params_for", "system_energy_params_for"]

__doc__ = (__doc__ or "") + policy_table() + "\n"


def energy_params_for(config: SystemConfig):
    """DRAM energy constants matching a system configuration.

    Keyed by the DRAM generation so design-space variants of the two
    Table 2 machines (renamed via ``dataclasses.replace``) still find
    their constants.
    """
    if config.timing.name == DDR4_ENERGY.name:
        return DDR4_ENERGY
    if config.timing.name == LPDDR3_ENERGY.name:
        return LPDDR3_ENERGY
    raise KeyError(f"no energy parameters for system {config.name!r}")


def system_energy_params_for(config: SystemConfig):
    """Whole-system energy constants matching a configuration."""
    if config.timing.name == DDR4_ENERGY.name:
        return SERVER_SYSTEM_ENERGY
    if config.timing.name == LPDDR3_ENERGY.name:
        return MOBILE_SYSTEM_ENERGY
    raise KeyError(f"no system energy parameters for {config.name!r}")


@dataclass
class RunSummary:
    """Everything one (benchmark, system, policy) run produced."""

    benchmark: str
    system: str
    policy: str
    lookahead: int | None
    cycles: int
    seconds: float
    bus_utilization: float
    mean_read_latency: float
    demand_reads: int
    total_zeros: int  # zeros transferred over both channels
    raw_zeros: int  # zeros the uncoded data would have cost
    scheme_counts: dict = field(default_factory=dict)
    dram_energy: dict = field(default_factory=dict)  # Figure 18 categories
    system_energy: dict = field(default_factory=dict)
    idle_gaps: dict = field(default_factory=dict)  # Figure 4 buckets
    slack: dict = field(default_factory=dict)  # Figure 6 buckets
    pending: dict = field(default_factory=dict)  # Figure 5 fractions
    write_optimized: int = 0
    trace_records: int = 0
    # Orchestration metadata (per-run wall time, cache-hit flag, ...),
    # filled by the campaign layer; never part of the cached payload,
    # so it carries no simulation semantics.
    stats: dict = field(default_factory=dict)

    @property
    def dram_total_j(self) -> float:
        return sum(self.dram_energy.values())

    @property
    def system_total_j(self) -> float:
        return self.system_energy.get("total", 0.0)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunSummary":
        return cls(**data)


def simulate_run(
    benchmark: str,
    config: SystemConfig,
    policy: str = "mil",
    lookahead: int | None = None,
    accesses_per_core: int = DEFAULT_ACCESSES_PER_CORE,
    seed: int = 0,
    mil_overrides: dict | None = None,
    telemetry=None,
    record_commands: bool = False,
):
    """The first half of a run: trace, zero tables, policy, simulation.

    Returns ``(trace, zero_tables, SimulationResult)``.  This is the one
    place that picks the zero tables a policy can send
    (:func:`~repro.core.policies.sent_schemes`: a mil run never sends a
    CAFO burst, and CAFO's tables are the costliest to build) and builds
    that policy's factory.  :func:`run` summarises its result; ``repro
    trace`` and the studies that read simulator internals call it
    directly.  Every stage is looked up on this module at call time, so
    a caller that wraps one (perfbench's per-layer timers) sees it.
    """
    trace = build_trace(
        benchmark, config, seed=seed, accesses_per_core=accesses_per_core
    )
    zeros_by_scheme = precompute_line_zeros(
        trace.line_data, sent_schemes(policy, mil_overrides),
        digest=trace.line_digest,
    )
    factory = make_factory(policy, zeros_by_scheme, lookahead, mil_overrides)
    result = simulate(
        trace, config, factory, telemetry=telemetry,
        record_commands=record_commands,
    )
    return trace, zeros_by_scheme, result


def run(
    benchmark: str,
    config: SystemConfig,
    policy: str = "mil",
    lookahead: int | None = None,
    accesses_per_core: int = DEFAULT_ACCESSES_PER_CORE,
    seed: int = 0,
    mil_overrides: dict | None = None,
    telemetry=None,
    audit=None,
) -> RunSummary:
    """Execute one benchmark under one policy and summarise it.

    The same trace (same benchmark/system/seed/scale) is replayed for
    every policy, so policy comparisons are paired.

    ``telemetry`` is an optional
    :class:`~repro.telemetry.session.TelemetrySession`.  Probes only
    observe, so the summary is identical with or without one; the
    session's aggregate table lands in ``RunSummary.stats`` (which the
    cache strips before hashing), never in the simulated results.

    ``audit`` is an optional :class:`~repro.audit.AuditReport` to fill
    with a post-run protocol audit (see :mod:`repro.audit`); like
    telemetry, it rides outside the run's identity, and its digest
    lands in ``RunSummary.stats``.
    """
    trace, zeros_by_scheme, result = simulate_run(
        benchmark, config, policy, lookahead, accesses_per_core, seed,
        mil_overrides, telemetry=telemetry, record_commands=audit is not None,
    )

    # Energy: only defined for policies whose schemes have codecs.
    has_energy = get_policy(policy).has_energy
    dram_energy: dict = {}
    system_energy: dict = {}
    total_zeros = 0
    if has_energy:
        dram_model = DramEnergyModel(energy_params_for(config))
        breakdown = dram_model.evaluate(result, zeros_by_scheme)
        dram_energy = breakdown.as_dict()
        system_model = SystemEnergyModel(
            system_energy_params_for(config), config
        )
        sys_breakdown = system_model.evaluate(result, trace, breakdown)
        system_energy = {
            "cores": sys_breakdown.cores,
            "uncore": sys_breakdown.uncore,
            "dram": sys_breakdown.dram.total,
            "total": sys_breakdown.total,
        }
        for tr in result.transactions():
            total_zeros += int(zeros_by_scheme[tr.scheme][tr.request_id])

    raw_zeros = 0
    if trace.line_data.size:
        raw_per_line = raw_line_zeros(trace.line_data)
        for tr in result.transactions():
            raw_zeros += int(raw_per_line[tr.request_id])

    # Figures 4-6 statistics (meaningful mainly for the baseline run).
    # Gaps are a per-channel notion: each data bus has its own idle
    # cycles, so the histograms are computed per controller and summed.
    idle: dict[str, int] = {}
    slack: dict[str, int] = {}
    for mc in result.controllers:
        for bucket, count in idle_gap_histogram(
            mc.channel.transactions
        ).items():
            idle[bucket] = idle.get(bucket, 0) + count
        for bucket, count in slack_histogram(
            mc.channel.transactions, config.timing
        ).items():
            slack[bucket] = slack.get(bucket, 0) + count
    splits = [
        pending_split(
            result.cycles,
            mc.channel.busy_cycles,
            result.pending_cycles[ch],
        )
        for ch, mc in enumerate(result.controllers)
    ]
    merged = pending_split(
        result.cycles * len(splits),
        sum(s.utilized for s in splits),
        sum(s.utilized + s.idle_pending for s in splits),
    )

    write_optimized = 0
    for mc in result.controllers:
        if isinstance(mc.policy, MiLPolicy):
            write_optimized += mc.policy.write_optimized

    summary = RunSummary(
        benchmark=benchmark,
        system=config.name,
        policy=policy,
        lookahead=lookahead,
        cycles=result.cycles,
        seconds=result.seconds,
        bus_utilization=result.bus_utilization,
        mean_read_latency=result.mean_read_latency,
        demand_reads=result.demand_reads,
        total_zeros=total_zeros,
        raw_zeros=raw_zeros,
        scheme_counts=result.scheme_counts,
        dram_energy=dram_energy,
        system_energy=system_energy,
        idle_gaps=idle,
        slack=slack,
        pending=merged.fractions(),
        write_optimized=write_optimized,
        trace_records=trace.total_records,
    )
    if telemetry is not None:
        summary.stats["telemetry"] = telemetry.stats_table()
    if audit is not None:
        from ..audit import audit_simulation

        summary.stats["audit"] = audit_simulation(result, audit).to_table()
    return summary


def run_spec(spec, telemetry=None, audit=None) -> RunSummary:
    """Execute one :class:`~repro.campaign.spec.RunSpec`.

    Duck-typed on purpose: the campaign layer depends on this module,
    so importing the spec class here would be circular.  ``telemetry``
    and ``audit`` deliberately live *outside* the spec: observing a run
    must not change its identity, so cache keys are the same with them
    on or off.
    """
    return run(
        spec.benchmark,
        spec.resolve_system(),
        spec.policy,
        lookahead=spec.lookahead,
        accesses_per_core=spec.accesses_per_core,
        seed=spec.seed,
        mil_overrides=dict(spec.mil_overrides) or None,
        telemetry=telemetry,
        audit=audit,
    )
