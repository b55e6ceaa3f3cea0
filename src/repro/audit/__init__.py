"""Opt-in protocol audit layer: independent checks over recorded logs.

``repro.audit`` re-derives every Table 2 DRAM constraint from the
command log a :class:`~repro.dram.channel.DRAMChannel` records (with
``keep_cmd_log=True``), using a different algorithm than the channel's
own enforcement — see :mod:`repro.audit.protocol`.  It is wired into
runs the same way telemetry is: *outside* the
:class:`~repro.campaign.spec.RunSpec`, so observing a run never changes
its cache key or its summary bytes.

Three consumers:

* ``repro run --audit``, ``repro campaign --audit`` and ``repro scenario
  run --audit`` — post-run audit of real workloads.  ``run`` fills an
  :class:`AuditReport` it passes to
  :func:`~repro.core.framework.run_spec`; campaigns pass an ``audit``
  flag down the lease path (``CampaignRunner(audit=True)``, the
  engine's broker, the forked shard or inline slot) to
  :func:`repro.campaign.runner._execute`, which raises
  :class:`ProtocolViolationError` on a dirty report so the run fails;
* ``repro fuzz`` and the test-suite corpus — the seeded schedule
  fuzzer of :mod:`repro.audit.fuzz`;
* injected-violation tests — mutated legal logs proving the auditor
  catches every constraint class (``tests/audit/``).
"""

from __future__ import annotations

from .protocol import ProtocolAuditor, Violation

__all__ = [
    "AuditReport",
    "ProtocolAuditor",
    "ProtocolViolationError",
    "Violation",
    "audit_simulation",
]


class ProtocolViolationError(RuntimeError):
    """A post-run audit found protocol violations."""

    def __init__(self, report: "AuditReport"):
        self.report = report
        first = report.violations[0]
        super().__init__(
            f"protocol audit failed: {len(report.violations)} violation(s), "
            f"first: {first}"
        )


class AuditReport:
    """Aggregated audit outcome across the channels of one run."""

    def __init__(self) -> None:
        self.channels: list[dict] = []

    def record(
        self,
        label: str,
        commands: int,
        transactions: int,
        violations: list[Violation],
    ) -> None:
        self.channels.append(
            {
                "label": label,
                "commands": commands,
                "transactions": transactions,
                "violations": violations,
            }
        )

    @property
    def violations(self) -> list[Violation]:
        return [v for ch in self.channels for v in ch["violations"]]

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def commands(self) -> int:
        return sum(ch["commands"] for ch in self.channels)

    def by_constraint(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.constraint] = counts.get(v.constraint, 0) + 1
        return counts

    def to_table(self) -> dict:
        """JSON-friendly digest (lands in ``RunSummary.stats``)."""
        return {
            "channels": len(self.channels),
            "commands": self.commands,
            "violations": len(self.violations),
            "by_constraint": self.by_constraint(),
        }

    def render(self) -> str:
        """Human-readable verdict for the CLI."""
        lines = [
            f"protocol audit: {self.commands} commands over "
            f"{len(self.channels)} channel(s)"
        ]
        if self.clean:
            lines.append("  clean: every Table 2 constraint re-derived OK")
            return "\n".join(lines)
        for constraint, count in sorted(self.by_constraint().items()):
            lines.append(f"  {constraint}: {count} violation(s)")
        for v in self.violations[:10]:
            lines.append(f"    {v}")
        if len(self.violations) > 10:
            lines.append(f"    ... {len(self.violations) - 10} more")
        return "\n".join(lines)


def audit_simulation(result, report: AuditReport | None = None) -> AuditReport:
    """Audit every channel of a :class:`SimulationResult`.

    Requires the simulation to have run with command recording on
    (``simulate(..., record_commands=True)``); a channel without a
    command log is reported with zero commands rather than failing, so
    partially recorded runs are visible instead of silently "clean".
    """
    if report is None:
        report = AuditReport()
    for ch, mc in enumerate(result.controllers):
        auditor = ProtocolAuditor(mc.timing, mc.geometry)
        violations = auditor.audit(
            mc.channel.command_log, mc.channel.transactions
        )
        report.record(
            label=f"channel{ch}",
            commands=len(mc.channel.command_log),
            transactions=len(mc.channel.transactions),
            violations=violations,
        )
    return report
