"""Campaign execution: one job on the engine ``repro serve`` runs.

:class:`CampaignRunner` deduplicates its specs and submits them as one
job to a private :class:`~repro.serve.jobs.JobManager`, whose submit
scan serves what it can from the content-addressed cache.  The misses
run on a :class:`~repro.serve.engine.Engine` under ``asyncio.run``
until the job settles, over ``min(jobs, misses)`` worker shards that
``run()`` forks (one means the broker's inline slot, in this process).

Simulations are seeded and deterministic, so the same spec produces
the same summary no matter which process executes it; the cache write
(:func:`_finish`) is what makes serial, parallel and served campaigns
byte-identical.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext

from . import cache
from .events import RunEvent, null_sink
from .spec import RunSpec

__all__ = ["CampaignFailed", "CampaignRunner", "default_jobs"]

# The engine's per-key job events a campaign narrates as RunEvents;
# "queued" is emitted up front and "cache-hit" by the scan.
_NARRATED = ("started", "retried", "finished", "failed")


class CampaignFailed(RuntimeError):
    """A strict campaign lost a run: names the first failed spec."""


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (1 when unset or invalid)."""
    raw = os.environ.get("REPRO_JOBS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _execute(spec: RunSpec, audit: bool = False) -> tuple[dict, float]:
    """Run one spec fresh; returns (summary dict, wall seconds).

    ``audit`` re-derives the run's command logs (:mod:`repro.audit`)
    and raises :class:`~repro.audit.ProtocolViolationError` when they
    break a rule, so the engine fails the run like any run that raised.
    Every execution slot looks this up on the module at call time; the
    framework import is deferred so importing ``repro.campaign`` stays
    cycle-free.
    """
    from ..audit import AuditReport, ProtocolViolationError
    from ..core.framework import run_spec

    started = time.perf_counter()
    report = AuditReport() if audit else None
    summary = run_spec(spec, audit=report)
    if report is not None and not report.clean:
        raise ProtocolViolationError(report)
    return summary.to_dict(), time.perf_counter() - started


def _finish(spec, body, wall_s, fingerprint):
    from ..core.framework import RunSummary

    summary = RunSummary.from_dict(body)
    cache.store(spec, summary, wall_s=wall_s, fingerprint=fingerprint)
    summary.stats = {"wall_s": wall_s, "cache_hit": False}
    return summary


class CampaignRunner:
    """Execute a set of RunSpecs with caching, fan-out, and events.

    Parameters
    ----------
    jobs:
        Worker shards; ``None`` means :func:`default_jobs`.
    sink:
        Callable fed a :class:`RunEvent` per orchestration step.
    retries:
        How many times a run that raised, or whose shard died, is
        re-queued before it counts as failed.
    fingerprint:
        Model fingerprint override (tests); ``None`` uses the real one.
    strict:
        ``True`` (the default) raises :class:`CampaignFailed` once the
        campaign settles with a failed run.  ``False`` records every
        failed spec in :attr:`failures` instead, so callers can report
        each failing key; failed specs are simply absent from the
        result dict either way.
    telemetry:
        Optional :class:`~repro.telemetry.session.TelemetrySession`
        (``time_unit="seconds"``); phases and per-run spans are recorded
        through its campaign probe.
    audit:
        Audit every executed run's command logs; a run that breaks a
        protocol rule fails with
        :class:`~repro.audit.ProtocolViolationError`.  Cache hits are
        not re-simulated.
    """

    def __init__(self, jobs: int | None = None, sink=None,
                 retries: int = 1, fingerprint: str | None = None,
                 strict: bool = True, telemetry=None,
                 audit: bool = False) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.sink = sink or null_sink
        self.retries = retries
        self.fingerprint = fingerprint
        self.strict = strict
        self.audit = audit
        self.failures: list[tuple[RunSpec, str]] = []
        # Probe resolved once here — wiring time, not per event.
        self._probe = (
            telemetry.campaign_probe() if telemetry is not None else None
        )
        self.counters = {
            "specs": 0, "cache_hits": 0, "executed": 0,
            "retries": 0, "failed": 0, "wall_s": 0.0,
        }

    def run(self, specs) -> dict[RunSpec, "object"]:
        """Run every distinct spec; returns {spec: RunSummary}.

        Failed specs are left out of the mapping; with ``strict=False``
        they are listed in :attr:`failures`.
        """
        import asyncio

        from ..serve.jobs import JobManager

        ordered = list(dict.fromkeys(specs))
        total = len(ordered)
        self.counters["specs"] += total
        results: dict[RunSpec, object] = {}
        if not ordered:
            return results
        for spec in ordered:
            self._emit("queued", spec, total)

        def scan(spec):
            summary = cache.load(spec, self.fingerprint)
            if summary is not None:
                results[spec] = summary
                self._emit("cache-hit", spec, total)
            return summary

        manager = JobManager(queue_limit=total, fingerprint=self.fingerprint)
        with self._phase("scan"):
            job = manager.submit(ordered, cache_probe=scan)
        failures = []
        if not job.finished:
            with self._phase("execute"):
                asyncio.run(self._drive(manager, job, results, failures))
        for key in ("cache_hits", "executed", "retries", "failed"):
            self.counters[key] += job.counters[key]
        if failures and self.strict:
            spec, error = failures[0]
            raise CampaignFailed(f"{spec.slug} failed: {error}")
        self.failures.extend(failures)
        return results

    async def _drive(self, manager, job, results, failures) -> None:
        """Run ``job``'s misses on an engine, narrating until it settles."""
        from ..serve.engine import Engine

        spec_of = dict(zip(job.keys, job.specs))

        def keep(key, jobs, summary):
            if summary is not None:
                results[spec_of[key]] = summary

        width = min(self.jobs, manager.queue_depth)
        engine = Engine(manager, width if width > 1 else 0, keep,
                        retries=self.retries, audit=self.audit)
        try:
            await engine.start()
            async for event in job.log.subscribe():
                kind = event["kind"]
                if event["scope"] != "run" or kind not in _NARRATED:
                    continue
                spec = spec_of[event["key"]]
                wall_s, error = event.get("wall_s"), event.get("error")
                if kind == "finished" and wall_s is not None:
                    self.counters["wall_s"] += wall_s
                elif kind == "failed":
                    failures.append((spec, error))
                self._emit(kind, spec, job.total, wall_s=wall_s, error=error)
        finally:
            await engine.stop()

    def _phase(self, name: str):
        if self._probe is not None:
            return self._probe.phase(name)
        return nullcontext()

    def _emit(self, kind, spec, total, wall_s=None, error=None) -> None:
        event = RunEvent(
            kind=kind,
            spec=spec,
            key=cache.cache_key(spec, self.fingerprint),
            total=total,
            wall_s=wall_s,
            error=error,
        )
        if self._probe is not None:
            self._probe.event(event)
        self.sink(event)
