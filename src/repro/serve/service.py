"""`CampaignService`: the resident engine behind the job API.

The service is an :class:`~repro.serve.engine.Engine` kept resident,
plus what only a long-lived process needs: a
:class:`~repro.serve.store.ResultStore` whose tenant indexes record
every hit and completed key (a quota/GC sweep runs whenever the work
queue drains), the :class:`~repro.serve.journal.Journal` a restarted
service resumes from, and the ``/v1/metrics`` sample with its rolling
JSONL exporter.

The service process pins ``REPRO_CACHE_DIR`` to the store's ``runs/``
directory for its lifetime, so shard children (forked after start)
and in-process cache probes all address the same store.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .engine import BACKOFF_BASE_S, BACKOFF_MAX_S, Engine
from .jobs import DEFAULT_QUEUE_LIMIT, Job, JobManager
from .journal import JOURNAL_NAME, Journal
from .protocol import spec_from_canonical
from .shards import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TIMEOUT_S,
    DEFAULT_SHARDS,
)
from .store import DEFAULT_QUOTA, ResultStore

__all__ = ["CampaignService", "ServiceConfig"]

METRICS_SCHEMA = "repro.serve.metrics/v1"
METRICS_NAME = "metrics.jsonl"


@dataclass
class ServiceConfig:
    """Everything `repro serve` can tune."""

    store_root: str | Path = ".cache/serve"
    shards: int = DEFAULT_SHARDS  # 0 = one inline slot in this process
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    quota: int = DEFAULT_QUOTA
    quotas: dict = field(default_factory=dict)
    retries: int = 2
    backoff_base_s: float = BACKOFF_BASE_S
    backoff_max_s: float = BACKOFF_MAX_S
    fingerprint: str | None = None  # tests pin this; None = real model
    # Remote workers: shared handshake token (None = accept any) and
    # the liveness knobs for the lease broker.
    worker_token: str | None = None
    heartbeat_s: float = DEFAULT_HEARTBEAT_S
    lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S
    # Durability: journal job submissions + events under the store
    # root and resume them on restart.
    journal: bool = True
    # Observability: >0 starts the rolling JSONL metrics exporter at
    # that interval; output defaults to <store_root>/metrics.jsonl.
    metrics_interval_s: float = 0.0
    metrics_out: str | Path | None = None


class CampaignService(Engine):
    """The resident campaign engine behind the job API."""

    def __init__(self, config: ServiceConfig | None = None,
                 telemetry=None) -> None:
        self.config = config or ServiceConfig()
        self.shards = max(0, self.config.shards)
        self.store = ResultStore(
            self.config.store_root,
            quota=self.config.quota,
            quotas=self.config.quotas,
        )
        super().__init__(
            JobManager(
                queue_limit=self.config.queue_limit,
                fingerprint=self.config.fingerprint,
            ),
            self.shards,
            self._settled,
            retries=self.config.retries,
            backoff_base_s=self.config.backoff_base_s,
            backoff_max_s=self.config.backoff_max_s,
            heartbeat_s=self.config.heartbeat_s,
            lease_timeout_s=self.config.lease_timeout_s,
            probe=(
                telemetry.service_probe() if telemetry is not None else None
            ),
        )
        self.counters["swept"] = 0
        self._metrics_task: asyncio.Task | None = None
        self._saved_cache_dir: str | None = None
        self._running = False
        self._started_at: float | None = None
        self.journal: Journal | None = None
        self.resume_report: dict | None = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Pin the cache dir, replay the journal, spawn the fleet."""
        if self._running:
            return
        self._running = True
        self._started_at = time.time()
        self.store.runs_dir.mkdir(parents=True, exist_ok=True)
        self._saved_cache_dir = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = str(self.store.runs_dir)
        if self.config.journal:
            self._open_journal()
        await super().start()
        if self.config.metrics_interval_s > 0:
            self._metrics_task = asyncio.get_running_loop().create_task(
                self._export_metrics()
            )

    def _open_journal(self) -> None:
        """Replay any prior journal, then keep appending to it.

        Replay happens *before* the broker starts, so re-queued keys
        are simply waiting in the heap when the first slot frees — a
        restarted service resumes a crashed campaign with the same job
        ids and event-log prefix it had before.
        """
        path = self.store.root / JOURNAL_NAME
        records = Journal.read(path)
        self.journal = Journal(path)
        self.journal.open()
        self.manager.bind_journal(self.journal)
        if records:
            self.resume_report = self.manager.restore(records)
            # Results that settled across the crash (cache file landed
            # before the finished event) were completed by restore()
            # directly on the manager, so re-pin them in the tenant
            # indexes here: the GC sweep must keep seeing them.
            by_namespace: dict[str, list[str]] = {}
            for job in self.manager.jobs.values():
                done = [k for k, s in job.key_state.items() if s == "done"]
                if done:
                    by_namespace.setdefault(job.namespace, []).extend(done)
            for namespace, keys in by_namespace.items():
                self.store.record(namespace, keys)

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self._metrics_task is not None:
            self._metrics_task.cancel()
            try:
                await self._metrics_task
            except asyncio.CancelledError:
                pass
            self._metrics_task = None
            self._write_metrics_sample()  # final sample at shutdown
        await super().stop()
        if self.journal is not None:
            self.journal.close()
        if self._saved_cache_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = self._saved_cache_dir

    # -- submission -----------------------------------------------------
    def submit_specs(
        self,
        specs,
        namespace: str = "default",
        priority: int = 0,
        label: str | None = None,
    ) -> Job:
        """Queue a campaign of :class:`RunSpec`; returns the job.

        Raises :class:`~repro.serve.jobs.QueueFullError` on
        back-pressure and ``KeyError``/``ValueError`` on invalid specs
        (both mapped to client errors by the HTTP layer).
        """
        job = self.manager.submit(
            specs, namespace=namespace, priority=priority, label=label,
        )
        hits = job.counters["cache_hits"]
        if hits and job.keys:
            # Cache hits touch the namespace index too: recency is
            # about *use*, not just execution.
            self.store.record(
                namespace,
                [k for k, s in job.key_state.items() if s == "done"],
            )
        if self._probe is not None:
            self._probe.submitted(job, hits)
            self._update_gauges()
        self._wake.set()
        return job

    def submit_payload(self, payload: dict) -> Job:
        """Submit from a wire payload (``POST /v1/jobs`` body)."""
        specs = payload_specs(payload)
        return self.submit_specs(
            specs,
            namespace=str(payload.get("namespace", "default")),
            priority=int(payload.get("priority", 0)),
            label=payload.get("label"),
        )

    # -- engine hook ----------------------------------------------------
    def _settled(self, key: str, jobs: list, summary) -> None:
        """Record a completed key in its jobs' namespaces, then sweep
        (in that order, or the sweep collects the file just written)."""
        if summary is not None:
            by_namespace: dict[str, list[str]] = {}
            for job in jobs:
                by_namespace.setdefault(job.namespace, []).append(key)
            for namespace, keys in by_namespace.items():
                self.store.record(namespace, keys)
        self._sweep_if_idle()

    def _sweep_if_idle(self) -> None:
        """Quota/GC sweep whenever the work queue drains.

        Sweeping only at idle keeps eviction from racing a key that a
        queued job is about to pin; an admin can also force one through
        ``POST /v1/sweep``.
        """
        if self.manager.outstanding == 0:
            report = self.store.sweep()
            if report["evicted"] or report["removed_files"]:
                self.counters["swept"] += 1

    # -- observability ---------------------------------------------------
    def metrics(self) -> dict:
        """One ``/v1/metrics`` sample: gauges, counters, and the fleet."""
        now = time.time()
        manager = self.manager
        sample = {
            "schema": METRICS_SCHEMA,
            "ts": round(now, 3),
            "uptime_s": (
                round(now - self._started_at, 3)
                if self._started_at is not None else None
            ),
            "queue": {
                "depth": manager.queue_depth,
                "inflight": manager.inflight,
                "outstanding": manager.outstanding,
                "limit": manager.queue_limit,
            },
            "jobs": {
                state: len(manager.list_jobs(state=state))
                for state in ("queued", "running", "done", "failed",
                              "cancelled")
            },
            "counters": {
                "manager": dict(manager.counters),
                "service": dict(self.counters),
            },
            "workers": {
                "connected": self.pool.workers_connected,
                "deaths": self.pool.worker_deaths,
                "shard_respawns": self.pool.respawns,
                "fleet": self.pool.fleet(),
            },
            "journal": (
                self.journal.stats() if self.journal is not None else None
            ),
        }
        return sample

    def _metrics_path(self) -> Path:
        if self.config.metrics_out is not None:
            return Path(self.config.metrics_out)
        return self.store.root / METRICS_NAME

    def _write_metrics_sample(self) -> None:
        path = self._metrics_path()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(self.metrics(), sort_keys=True) + "\n")
        except OSError:
            pass  # an unwritable exporter must never take the service down

    async def _export_metrics(self) -> None:
        """The rolling exporter: one JSONL sample per interval."""
        while True:
            await asyncio.sleep(self.config.metrics_interval_s)
            self._write_metrics_sample()

    # -- queries --------------------------------------------------------
    def job(self, job_id: str) -> Job:
        return self.manager.job(job_id)

    def cancel(self, job_id: str) -> Job:
        job = self.manager.cancel(job_id)
        self._wake.set()
        return job

    def result_rows(self, job_id: str) -> list:
        """One dict per completed spec, submission-ordered.

        ``summary`` is the cached payload's ``summary`` block verbatim
        (the byte-identical body); wall-clock facts ride in ``meta``.
        """
        job = self.manager.job(job_id)
        rows = []
        for spec, key in zip(job.specs, job.keys):
            state = job.key_state.get(key)
            if state != "done":
                continue
            path = self.store.runs_dir / f"{key}.json"
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue  # evicted or raced GC: absent from the rows
            rows.append({
                "job": job.id,
                "cache_key": key,
                "spec": spec.canonical(),
                "summary": payload.get("summary", {}),
                "meta": payload.get("meta", {}),
            })
        return rows

    def stats(self) -> dict:
        return {
            "shards": self.shards,
            "respawns": self.pool.respawns,
            "workers": self.pool.workers_connected,
            "worker_deaths": self.pool.worker_deaths,
            "queue_depth": self.manager.queue_depth,
            "inflight": self.manager.inflight,
            "queue_limit": self.manager.queue_limit,
            "jobs": {
                state: len(self.manager.list_jobs(state=state))
                for state in ("queued", "running", "done", "failed",
                              "cancelled")
            },
            "manager": dict(self.manager.counters),
            "service": dict(self.counters),
            "store": self.store.stats(),
        }


def payload_specs(payload: dict) -> list:
    """Decode a submission payload into a list of :class:`RunSpec`.

    Two kinds are accepted:

    * ``{"kind": "specs", "specs": [RunSpec.canonical() dicts]}``
    * ``{"kind": "scenario", "scenario": <normalized scenario doc>}`` —
      compiled server-side, so a thin client can submit a scenario file
      without importing the engine.
    """
    kind = payload.get("kind", "specs")
    if kind == "specs":
        raw = payload.get("specs")
        if not isinstance(raw, list) or not raw:
            raise ValueError("payload needs a non-empty 'specs' list")
        return [spec_from_canonical(entry) for entry in raw]
    if kind == "scenario":
        from ..scenario import compile_scenario, parse_scenario

        doc = payload.get("scenario")
        if not isinstance(doc, dict):
            raise ValueError("payload needs a 'scenario' document")
        return compile_scenario(parse_scenario(doc))
    raise ValueError(f"unknown submission kind {kind!r}")
