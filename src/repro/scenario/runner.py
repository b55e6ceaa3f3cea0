"""Scenario execution: compile, ride the campaign engine, emit rows.

Nothing here re-implements orchestration — a scenario run is exactly a
:class:`~repro.campaign.runner.CampaignRunner` campaign over the
compiled spec matrix, so the content-addressed cache, the zero-table
cache, retries, ``--jobs`` fan-out, ``--audit`` and telemetry all apply
unchanged.  The only scenario-specific work is ordering: result rows
are emitted in *compile order* (not completion order), which keeps the
JSONL byte-stable across serial and parallel executions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..campaign.runner import CampaignRunner
from .compiler import compile_scenario
from .results import git_rev, result_row
from .schema import Scenario

__all__ = ["ScenarioResult", "run_scenario"]


@dataclass
class ScenarioResult:
    """Everything one scenario execution produced."""

    scenario: Scenario
    specs: list  # compile-ordered RunSpecs
    rows: list  # repro.scenario/v1 dicts, compile-ordered
    counters: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_scenario(
    scenario: Scenario,
    jobs: int | None = None,
    sink=None,
    fingerprint: str | None = None,
    telemetry=None,
    audit: bool = False,
) -> ScenarioResult:
    """Execute a scenario's matrix and build its JSONL rows.

    Failures are collected (``strict=False``), not raised: the rows for
    failed specs are simply absent, and the caller decides whether a
    partial time series is worth keeping (the CLI exits non-zero and
    names every failed cache key).  ``audit`` is
    :class:`~repro.campaign.runner.CampaignRunner`'s: a run whose
    command logs break a protocol rule is one of those failures.
    """
    specs = compile_scenario(scenario)
    runner = CampaignRunner(
        jobs=jobs, sink=sink, strict=False,
        fingerprint=fingerprint, telemetry=telemetry, audit=audit,
    )
    results = runner.run(specs)
    rev = git_rev()  # one subprocess per scenario, not per row
    rows = [
        result_row(scenario, spec, results[spec],
                   fingerprint=fingerprint, rev=rev)
        for spec in specs
        if spec in results
    ]
    return ScenarioResult(
        scenario=scenario,
        specs=specs,
        rows=rows,
        counters=dict(runner.counters),
        failures=list(runner.failures),
    )
