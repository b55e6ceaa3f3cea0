"""The job model and manager: everything about *what* to run, not *how*.

A **job** is one submitted campaign: an ordered list of
:class:`~repro.campaign.spec.RunSpec` plus a namespace, a priority, and
an event log.  The manager reduces jobs to **work units** — one per
distinct content-addressed cache key — and hands them out in priority
order (higher first, FIFO within a priority).  Because the unit of work
is the cache key, duplicate submissions coalesce for free: a key that
is already queued or leased just gains another waiting job, and a
single execution settles every waiter.

The manager is deliberately synchronous and process-free: it owns no
shards, sockets, or clocks beyond event timestamps, which is what makes
its scheduling behaviour unit-testable.  The engine
(:class:`~repro.serve.engine.Engine`) is the async loop that pulls
work from here and pushes results back.

Back-pressure is a bounded count of *outstanding* work units (queued
plus leased): a submission whose cache misses would exceed the bound is
rejected atomically with :class:`QueueFullError` — no partial enqueue,
so a rejected client can simply retry later.
"""

from __future__ import annotations

import heapq
import itertools

from ..campaign import cache
from ..campaign.spec import RunSpec
from .events import EventLog, make_event
from .protocol import spec_from_canonical

__all__ = ["Job", "JobManager", "JobState", "QueueFullError"]

DEFAULT_QUEUE_LIMIT = 4096


class QueueFullError(RuntimeError):
    """Submission rejected: the work queue is at its bound."""


class JobState:
    """Job lifecycle: queued -> running -> done | failed | cancelled."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = (DONE, FAILED, CANCELLED)


class Job:
    """One submitted campaign and its progress bookkeeping."""

    def __init__(
        self,
        job_id: str,
        namespace: str,
        specs: list,
        keys: list,
        priority: int = 0,
        label: str | None = None,
    ) -> None:
        self.id = job_id
        self.namespace = namespace
        self.specs = specs  # submission order, deduplicated
        self.keys = keys  # parallel to specs
        self.priority = priority
        self.label = label or (specs[0].slug if specs else job_id)
        self.state = JobState.QUEUED
        self.error: str | None = None
        self.log = EventLog()
        # Set by the manager when a journal is bound: called with
        # (job, event) after every append so events persist in order.
        self.on_event = None
        # Per-key outcome: "pending" | "done" | "failed".
        self.key_state = {key: "pending" for key in keys}
        self.counters = {
            "cache_hits": 0, "executed": 0, "coalesced": 0,
            "retries": 0, "failed": 0,
        }

    @property
    def total(self) -> int:
        return len(self.keys)

    @property
    def done(self) -> int:
        return sum(1 for s in self.key_state.values() if s != "pending")

    @property
    def finished(self) -> bool:
        return self.state in JobState.TERMINAL

    def emit(self, scope: str, kind: str, **fields) -> dict:
        event = self.log.append(make_event(scope, kind, self.id, **fields))
        if self.on_event is not None:
            self.on_event(self, event)
        return event

    def descriptor(self) -> dict:
        """The wire representation (`GET /v1/jobs/<id>`)."""
        return {
            "id": self.id,
            "namespace": self.namespace,
            "label": self.label,
            "priority": self.priority,
            "state": self.state,
            "total": self.total,
            "done": self.done,
            "error": self.error,
            "counters": dict(self.counters),
            "events": len(self.log),
        }


class JobManager:
    """Submit/status/cancel/list plus priority + FIFO work scheduling."""

    def __init__(
        self,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        fingerprint: str | None = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        self.queue_limit = queue_limit
        self.fingerprint = fingerprint
        self.jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._fifo = itertools.count()  # tie-break: submission order
        # Work units: heap of (-priority, fifo, key).  A key may appear
        # more than once (a later, hotter submission bumps it); stale
        # entries are skipped at pop time.
        self._heap: list[tuple[int, int, str]] = []
        self._queued: set[str] = set()  # keys in heap, not yet leased
        self._leased: set[str] = set()
        self._spec_by_key: dict[str, RunSpec] = {}
        # Best priority currently pushed for each queued key: a later,
        # hotter submission only re-pushes when it actually beats this.
        self._pushed: dict[str, int] = {}
        # Jobs still waiting on a key (queued or leased).
        self._waiters: dict[str, list[Job]] = {}
        # Called with the key whenever a unit is dropped without a
        # terminal outcome (all waiters cancelled) — the service uses
        # it to clear per-key retry bookkeeping.
        self.on_drop = None
        self._journal = None
        self.counters = {
            "submitted": 0, "finished": 0, "failed": 0, "cancelled": 0,
            "rejected": 0, "cache_hits": 0, "coalesced": 0,
        }

    # -- depth gauges ---------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Distinct keys waiting for a shard (back-pressure numerator)."""
        return len(self._queued)

    @property
    def inflight(self) -> int:
        return len(self._leased)

    @property
    def outstanding(self) -> int:
        return len(self._queued) + len(self._leased)

    # -- submission -----------------------------------------------------
    def submit(
        self,
        specs,
        namespace: str = "default",
        priority: int = 0,
        label: str | None = None,
        cache_probe=None,
    ) -> Job:
        """Register a campaign; returns the :class:`Job`.

        ``cache_probe(spec)`` is the cache-scan hook (defaults to the
        campaign cache): a non-``None`` return settles that spec as an
        immediate hit.  Raises :class:`QueueFullError` — atomically,
        before any state changes — when the submission's cache misses
        would push outstanding work past ``queue_limit``.
        """
        ordered = list(dict.fromkeys(specs))
        if not ordered:
            raise ValueError("a job needs at least one RunSpec")
        if cache_probe is None:
            cache_probe = lambda spec: cache.load(spec, self.fingerprint)
        keys = [cache.cache_key(s, self.fingerprint) for s in ordered]

        hits: list[bool] = []
        fresh = 0
        for spec, key in zip(ordered, keys):
            hit = cache_probe(spec) is not None
            hits.append(hit)
            if not hit and key not in self._waiters:
                fresh += 1
        if self.outstanding + fresh > self.queue_limit:
            self.counters["rejected"] += 1
            raise QueueFullError(
                f"queue limit {self.queue_limit} reached "
                f"({self.outstanding} outstanding, {fresh} new)"
            )

        job = Job(
            f"j{next(self._ids)}", namespace, ordered, keys,
            priority=priority, label=label,
        )
        self.jobs[job.id] = job
        if self._journal is not None:
            # Descriptor first, then events: replay relies on the order.
            self._journal.append({
                "op": "job", "id": job.id, "namespace": namespace,
                "priority": priority, "label": job.label,
                "specs": [s.canonical() for s in ordered], "keys": keys,
            })
            job.on_event = self._journal_event
        self.counters["submitted"] += 1
        job.emit("job", "queued", total=job.total, priority=priority,
                 namespace=namespace)
        for spec, key, hit in zip(ordered, keys, hits):
            if hit:
                job.key_state[key] = "done"
                job.counters["cache_hits"] += 1
                self.counters["cache_hits"] += 1
                job.emit("run", "cache-hit", key=key, slug=spec.slug,
                         total=job.total, done=job.done)
                continue
            waiters = self._waiters.get(key)
            if waiters is not None:
                # Coalesce onto the in-flight or queued execution.
                waiters.append(job)
                job.counters["coalesced"] += 1
                self.counters["coalesced"] += 1
                job.emit("run", "coalesced", key=key, slug=spec.slug,
                         total=job.total, leased=key in self._leased)
                best = self._pushed.get(key)
                if key in self._queued and best is not None \
                        and priority > best:
                    self._push(key, priority)
                continue
            self._waiters[key] = [job]
            self._spec_by_key[key] = spec
            self._push(key, priority)
            job.emit("run", "queued", key=key, slug=spec.slug,
                     total=job.total)
        self._settle(job)
        return job

    # -- scheduling -----------------------------------------------------
    def _push(self, key: str, priority: int) -> None:
        """Enqueue ``key`` at ``priority`` and remember the best push."""
        self._queued.add(key)
        self._pushed[key] = priority
        heapq.heappush(self._heap, (-priority, next(self._fifo), key))

    def _drop(self, key: str) -> None:
        """Forget a unit nobody waits on — no terminal state to record.

        This is the counterpart of the cancel/release interleaving: a
        key whose last live waiter is gone must leave *every* index
        (waiters, spec, queue, pushed-priority), or a later submission
        of the same spec would coalesce onto an execution that no
        longer exists and hang forever.
        """
        self._waiters.pop(key, None)
        self._spec_by_key.pop(key, None)
        self._queued.discard(key)
        self._pushed.pop(key, None)
        if self.on_drop is not None:
            self.on_drop(key)

    def next_work(self) -> tuple[str, RunSpec] | None:
        """Pop the highest-priority pending key, or ``None``.

        The popped key moves to the *leased* set; the caller must end
        the lease with :meth:`complete`, :meth:`fail`, or
        :meth:`release`.
        """
        while self._heap:
            _, _, key = heapq.heappop(self._heap)
            if key not in self._queued:
                continue  # stale duplicate, cancelled, or already leased
            self._queued.discard(key)
            self._pushed.pop(key, None)
            self._leased.add(key)
            for job in self._waiters.get(key, ()):
                if job.state == JobState.QUEUED:
                    job.state = JobState.RUNNING
                job.emit("run", "started", key=key,
                         slug=self._spec_by_key[key].slug, total=job.total)
            return key, self._spec_by_key[key]
        return None

    def release(self, key: str, error: str | None = None,
                requeue: bool = True) -> str:
        """Return a leased key to the queue (worker death / retry).

        Returns what happened: ``"requeued"``, ``"failed"`` (gave up),
        ``"dropped"`` (every waiter was cancelled while the lease was
        out, so the unit is forgotten), or ``"idle"`` (not leased).
        """
        if key not in self._leased:
            return "idle"
        self._leased.discard(key)
        waiters = [j for j in self._waiters.get(key, ())
                   if j.state != JobState.CANCELLED]
        if not waiters:
            self._drop(key)
            return "dropped"
        for job in waiters:
            job.counters["retries"] += 1
            job.emit("run", "retried", key=key, error=error)
        if requeue:
            self._push(key, max(j.priority for j in waiters))
            return "requeued"
        self.fail(key, error or "gave up")
        return "failed"

    def complete(self, key: str, wall_s: float | None = None,
                 executed: bool = True) -> list[Job]:
        """Settle ``key`` as done for every waiting job."""
        return self._close_key(
            key, "done", "finished", wall_s=wall_s, executed=executed,
        )

    def fail(self, key: str, error: str) -> list[Job]:
        """Settle ``key`` as failed for every waiting job."""
        return self._close_key(key, "failed", "failed", error=error)

    def _close_key(self, key, state, kind, wall_s=None, error=None,
                   executed=False) -> list[Job]:
        self._leased.discard(key)
        self._queued.discard(key)
        self._pushed.pop(key, None)
        spec = self._spec_by_key.pop(key, None)
        slug = spec.slug if spec is not None else None
        touched = []
        for job in self._waiters.pop(key, ()):
            if job.finished:
                continue
            job.key_state[key] = state
            if state == "failed":
                job.counters["failed"] += 1
            elif executed:
                job.counters["executed"] += 1
            job.emit("run", kind, key=key, slug=slug, total=job.total,
                     done=job.done, wall_s=wall_s, error=error,
                     executed=executed or None)
            self._settle(job)
            touched.append(job)
        return touched

    def _settle(self, job: Job) -> None:
        """Finalize ``job`` once every key has an outcome."""
        if job.finished or job.done < job.total:
            return
        failed = [k for k, s in job.key_state.items() if s == "failed"]
        if failed:
            job.state = JobState.FAILED
            job.error = f"{len(failed)} of {job.total} run(s) failed"
            self.counters["failed"] += 1
        else:
            job.state = JobState.DONE
            self.counters["finished"] += 1
        job.emit("job", job.state, total=job.total, done=job.done,
                 error=job.error, counters=dict(job.counters))
        job.log.close()

    # -- durability -----------------------------------------------------
    def bind_journal(self, journal) -> None:
        """Persist every future submission and event to ``journal``."""
        self._journal = journal
        for job in self.jobs.values():
            job.on_event = self._journal_event

    def _journal_event(self, job: Job, event: dict) -> None:
        self._journal.append({"op": "event", "job": job.id, "event": event})

    def restore(self, records, cache_probe=None) -> dict:
        """Rebuild state from journal ``records`` (fresh manager only).

        Replay is a fold: ``job`` records recreate descriptors with
        their original ids, ``event`` records re-append each job's
        event log verbatim (``seq``/``ts`` included), and per-key
        outcomes plus counters are re-derived from the events.  Every
        key still pending afterwards — queued *or* leased at the crash
        — is probed against the cache (a result that landed before the
        crash settles without re-executing) and otherwise re-queued at
        its waiters' best priority.  Returns a small report dict.
        """
        if self.jobs:
            raise RuntimeError("restore() requires a fresh JobManager")
        if cache_probe is None:
            cache_probe = lambda spec: cache.load(spec, self.fingerprint)

        max_id = 0
        for record in records:
            op = record.get("op")
            if op == "job":
                try:
                    specs = [spec_from_canonical(e)
                             for e in record["specs"]]
                    job = Job(
                        str(record["id"]),
                        str(record.get("namespace", "default")),
                        specs, [str(k) for k in record["keys"]],
                        priority=int(record.get("priority", 0)),
                        label=record.get("label"),
                    )
                except (KeyError, TypeError, ValueError):
                    continue  # torn or incompatible record
                self.jobs[job.id] = job
                digits = job.id[1:]
                if digits.isdigit():
                    max_id = max(max_id, int(digits))
            elif op == "event":
                job = self.jobs.get(record.get("job"))
                event = record.get("event")
                if job is None or not isinstance(event, dict):
                    continue
                # Verbatim re-append (not .append(): seq is already
                # stamped and must survive for ?since= resumption).
                job.log._events.append(event)

        self._ids = itertools.count(max_id + 1)
        for job in self.jobs.values():
            self._replay_events(job)

        self.counters["submitted"] = len(self.jobs)
        for job in self.jobs.values():
            self.counters["cache_hits"] += job.counters["cache_hits"]
            self.counters["coalesced"] += job.counters["coalesced"]
            if job.state == JobState.DONE:
                self.counters["finished"] += 1
            elif job.state == JobState.FAILED:
                self.counters["failed"] += 1
            elif job.state == JobState.CANCELLED:
                self.counters["cancelled"] += 1

        # From here on the journal records new history again (resume
        # events below included); the replayed prefix is already there.
        if self._journal is not None:
            for job in self.jobs.values():
                job.on_event = self._journal_event

        # Re-queue the unfinished work.  Keys leased at crash time have
        # no outcome event, so they land back in the queue exactly like
        # a released lease.
        for job in self.jobs.values():
            if job.finished:
                continue
            for spec, key in zip(job.specs, job.keys):
                if job.key_state.get(key) != "pending":
                    continue
                if key not in self._waiters:
                    self._waiters[key] = []
                    self._spec_by_key[key] = spec
                if job not in self._waiters[key]:
                    self._waiters[key].append(job)
        requeued = settled = 0
        for key, waiters in list(self._waiters.items()):
            if cache_probe(self._spec_by_key[key]) is not None:
                # The result file beat the crash: settle, don't re-run.
                self.complete(key, executed=False)
                settled += 1
            else:
                self._push(key, max(j.priority for j in waiters))
                requeued += 1
        return {
            "jobs": len(self.jobs),
            "requeued": requeued,
            "settled": settled,
        }

    def _replay_events(self, job: Job) -> None:
        """Re-derive key states, counters, and lifecycle from the log."""
        for event in job.log._events:
            scope, kind = event.get("scope"), event.get("kind")
            if scope == "run":
                key = event.get("key")
                if kind == "cache-hit" and key in job.key_state:
                    job.key_state[key] = "done"
                    job.counters["cache_hits"] += 1
                elif kind == "finished" and key in job.key_state:
                    job.key_state[key] = "done"
                    if event.get("executed"):
                        job.counters["executed"] += 1
                elif kind == "failed" and key in job.key_state:
                    job.key_state[key] = "failed"
                    job.counters["failed"] += 1
                elif kind == "coalesced":
                    job.counters["coalesced"] += 1
                elif kind == "retried":
                    job.counters["retries"] += 1
                elif kind == "started" and job.state == JobState.QUEUED:
                    job.state = JobState.RUNNING
            elif scope == "job" and kind in JobState.TERMINAL:
                job.state = kind
                job.error = event.get("error")
        if job.finished and not job.log.closed:
            job.log.close()

    # -- queries and cancellation --------------------------------------
    def job(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id!r}") from None

    def list_jobs(self, namespace: str | None = None,
                  state: str | None = None) -> list[Job]:
        out = []
        for job in self.jobs.values():
            if namespace is not None and job.namespace != namespace:
                continue
            if state is not None and job.state != state:
                continue
            out.append(job)
        return out

    def cancel(self, job_id: str) -> Job:
        """Cancel a job; queued-only keys are dropped, leases drain.

        A key whose only waiters are cancelled jobs leaves the queue
        (lazily — its heap entries are skipped).  A key some *other*
        live job still waits on keeps executing; the cancelled job just
        stops listening.  An already-terminal job is returned as-is.
        """
        job = self.job(job_id)
        if job.finished:
            return job
        job.state = JobState.CANCELLED
        self.counters["cancelled"] += 1
        for key, state in job.key_state.items():
            if state != "pending":
                continue
            waiters = self._waiters.get(key)
            if waiters is None:
                continue
            if job in waiters:
                waiters.remove(job)
            if not waiters and key not in self._leased:
                # Nobody wants it and nothing runs it: drop the unit.
                # (A *leased* key keeps its empty waiter list until the
                # lease ends; release() then drops it the same way.)
                self._drop(key)
        job.emit("job", JobState.CANCELLED, total=job.total, done=job.done)
        job.log.close()
        return job
