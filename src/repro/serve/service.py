"""`CampaignService`: the asyncio scheduler loop around the job manager.

One service owns one :class:`~repro.serve.jobs.JobManager`, one
:class:`~repro.serve.shards.LeaseBroker`, and one
:class:`~repro.serve.store.ResultStore`, all driven from a single event
loop.  The flow per work unit (one content-addressed cache key):

1. ``submit`` scans the campaign cache (hits settle immediately and
   never reach a shard) and queues the misses with priority + FIFO
   order and bounded back-pressure;
2. the scheduler leases keys to free shards; duplicate submissions are
   already coalesced by the manager, so a key executes at most once no
   matter how many jobs want it;
3. a shard reply of ``ok`` is finished through the exact code path a
   local campaign uses (:func:`repro.campaign.runner._finish`), which
   is what keeps served cache files byte-identical to local ones;
4. ``err`` replies retry with exponential backoff up to ``retries``
   attempts; a *died* shard releases its lease back to the queue
   (charged as one attempt) and the pool respawns the worker;
5. completion updates every waiting job's event log and records the
   keys under the job's namespace in the result store; a quota/GC
   sweep runs opportunistically whenever a job finishes.

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

from ..campaign import cache
from ..campaign.runner import _finish
from ..campaign.spec import RunSpec
from .jobs import DEFAULT_QUEUE_LIMIT, Job, JobManager
from .journal import JOURNAL_NAME, Journal
from .protocol import spec_from_canonical
from .shards import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TIMEOUT_S,
    DEFAULT_SHARDS,
    LeaseBroker,
    shard_count_from_env,
)
from .store import DEFAULT_QUOTA, ResultStore

__all__ = ["CampaignService", "ServiceConfig", "default_shards"]

METRICS_SCHEMA = "repro.serve.metrics/v1"
METRICS_NAME = "metrics.jsonl"


def default_shards() -> int:
    return shard_count_from_env(DEFAULT_SHARDS)


@dataclass
class ServiceConfig:
    """Everything `repro serve` can tune."""

    store_root: str | Path = ".cache/serve"
    shards: int | None = None  # None -> REPRO_SERVE_SHARDS or 2
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    quota: int = DEFAULT_QUOTA
    quotas: dict = field(default_factory=dict)
    retries: int = 2
    backoff_base_s: float = 0.05  # attempt n sleeps base * 2**(n-1)
    backoff_max_s: float = 2.0
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


class CampaignService:
    """The resident campaign engine behind the job API."""

    def __init__(self, config: ServiceConfig | None = None,
                 telemetry=None) -> None:
        self.config = config or ServiceConfig()
        shards = self.config.shards
        self.shards = default_shards() if shards is None else max(0, shards)
        self.store = ResultStore(
            self.config.store_root,
            quota=self.config.quota,
            quotas=self.config.quotas,
        )
        self.manager = JobManager(
            queue_limit=self.config.queue_limit,
            fingerprint=self.config.fingerprint,
        )
        self.pool = LeaseBroker(
            self.shards,
            self._on_result,
            heartbeat_s=self.config.heartbeat_s,
            lease_timeout_s=self.config.lease_timeout_s,
            on_fleet_change=self._fleet_changed,
        )
        # Drop per-key retry bookkeeping the moment the manager forgets
        # a unit (e.g. every waiter cancelled mid-backoff) — otherwise
        # `_attempts` grows forever on cancel-heavy workloads.
        self.manager.on_drop = self._attempts_drop
        self._probe = (
            telemetry.service_probe() if telemetry is not None else None
        )
        self._wake = asyncio.Event()
        self._gate = asyncio.Event()  # cleared == paused
        self._gate.set()
        self._scheduler: asyncio.Task | None = None
        self._metrics_task: asyncio.Task | None = None
        self._retry_tasks: set = set()
        self._attempts: dict[str, int] = {}  # key -> failed attempts
        self._saved_cache_dir: str | None = None
        self._running = False
        self._started_at: float | None = None
        self.journal: Journal | None = None
        self.resume_report: dict | None = None
        self.counters = {
            "executed": 0, "retried": 0, "died": 0, "swept": 0,
        }

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
        self.pool.start()
        loop = asyncio.get_running_loop()
        self._scheduler = loop.create_task(self._schedule_loop())
        if self.config.metrics_interval_s > 0:
            self._metrics_task = loop.create_task(self._export_metrics())
        self._wake.set()

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
        self._wake.set()
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
        if self._metrics_task is not None:
            self._metrics_task.cancel()
            try:
                await self._metrics_task
            except asyncio.CancelledError:
                pass
            self._metrics_task = None
            self._write_metrics_sample()  # final sample at shutdown
        for task in list(self._retry_tasks):
            task.cancel()
        self.pool.close()
        if self.journal is not None:
            self.journal.close()
        if self._saved_cache_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = self._saved_cache_dir

    def pause(self) -> None:
        """Stop leasing new work (in-flight leases drain normally)."""
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()
        self._wake.set()

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

    # -- scheduling -----------------------------------------------------
    async def _schedule_loop(self) -> None:
        while True:
            await self._gate.wait()
            dispatched = False
            while self._gate.is_set() and self.pool.free_slots > 0:
                work = self.manager.next_work()
                if work is None:
                    break
                key, spec = work
                # The cache may have filled in since submit (another
                # tenant, another service on the same store).
                summary = cache.load(spec, self.manager.fingerprint)
                if summary is not None:
                    self._complete(key, wall_s=None, executed=False)
                    dispatched = True
                    continue
                if not self.pool.dispatch(key, spec):
                    # The free slot vanished between the check and the
                    # lease (a remote worker died on send): put the key
                    # straight back so it can't strand in the leased set.
                    self.manager.release(
                        key, error="no free worker", requeue=True
                    )
                    break
                dispatched = True
            if self._probe is not None and dispatched:
                self._update_gauges()
            self._wake.clear()
            if self.manager.queue_depth == 0 or self.pool.free_slots == 0:
                await self._wake.wait()

    def _on_result(self, key: str, spec: RunSpec, outcome: tuple) -> None:
        kind = outcome[0]
        if kind == "ok":
            _, body, wall_s = outcome
            _finish(spec, body, wall_s, self.manager.fingerprint)
            self._attempts.pop(key, None)
            self.counters["executed"] += 1
            self._complete(key, wall_s=wall_s, executed=True)
        else:  # "err" (worker exception) or "died" (killed shard)
            error = outcome[1]
            if kind == "died":
                self.counters["died"] += 1
            attempts = self._attempts.get(key, 0) + 1
            self._attempts[key] = attempts
            if attempts > self.config.retries:
                self._attempts.pop(key, None)
                self.manager.fail(key, error)
                self._sweep_if_idle()
            else:
                self.counters["retried"] += 1
                delay = min(
                    self.config.backoff_max_s,
                    self.config.backoff_base_s * (2 ** (attempts - 1)),
                )
                task = asyncio.get_running_loop().create_task(
                    self._requeue_later(key, error, delay)
                )
                self._retry_tasks.add(task)
                task.add_done_callback(self._retry_tasks.discard)
        if self._probe is not None:
            self._probe.result(kind)
            self._update_gauges()
        self._wake.set()

    async def _requeue_later(self, key: str, error: str,
                             delay: float) -> None:
        """Retry-with-backoff: the lease returns to the queue later."""
        await asyncio.sleep(delay)
        self.manager.release(key, error=error, requeue=True)
        self._wake.set()

    def _complete(self, key: str, wall_s, executed: bool) -> None:
        jobs = self.manager.complete(key, wall_s=wall_s, executed=executed)
        by_namespace: dict[str, list[str]] = {}
        for job in jobs:
            by_namespace.setdefault(job.namespace, []).append(key)
        for namespace, keys in by_namespace.items():
            self.store.record(namespace, keys)
        self._sweep_if_idle()

    def _attempts_drop(self, key: str) -> None:
        """Manager forgot a unit (all waiters gone): forget its retries."""
        self._attempts.pop(key, None)

    def _fleet_changed(self) -> None:
        """Broker capacity changed: wake the scheduler, refresh gauges."""
        self._wake.set()
        if self._probe is not None:
            self._update_gauges()

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

    def _update_gauges(self) -> None:
        self._probe.gauges(
            queue_depth=self.manager.queue_depth,
            inflight=self.manager.inflight,
            shards=len(self.pool.busy_leases),
            workers=self.pool.workers_connected,
        )

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
