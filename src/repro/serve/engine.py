"""`Engine`: the one scheduler loop that leases work and retries it.

An engine drives a :class:`~repro.serve.jobs.JobManager` and a
:class:`~repro.serve.shards.LeaseBroker` from a single event loop.  The
flow per work unit (one content-addressed cache key):

1. the scheduler leases queued keys to free fleet slots; duplicate
   submissions are already coalesced by the manager, so a key executes
   at most once no matter how many jobs want it;
2. a reply of ``ok`` is finished through
   :func:`repro.campaign.runner._finish`, the one code path that writes
   a cache file, so every result is byte-identical whoever ran it;
3. an ``err`` reply (the run raised) or a ``died`` one (its shard or
   remote worker was lost mid-lease) costs one of ``retries`` attempts
   and returns the key to the queue after exponential backoff; the
   attempt past the budget fails the key.

Both execution front-ends are this engine:
:meth:`~repro.campaign.runner.CampaignRunner.run` drives one until its
single job settles, and :class:`~repro.serve.service.CampaignService`
keeps one resident.  ``on_settled(key, jobs, summary)`` is called once
per key outcome, with ``summary=None`` when the key failed.
"""

from __future__ import annotations

import asyncio

from ..campaign import cache
from ..campaign.runner import _finish
from ..campaign.spec import RunSpec
from .shards import DEFAULT_HEARTBEAT_S, DEFAULT_LEASE_TIMEOUT_S, LeaseBroker

__all__ = ["Engine"]

BACKOFF_BASE_S = 0.05  # attempt n sleeps base * 2**(n-1) ...
BACKOFF_MAX_S = 2.0  # ... capped here


class Engine:
    """Scheduler loop plus retry-with-backoff over one manager and fleet.

    ``shards`` is the local fleet width (0 = one inline slot).  ``probe``
    is an optional :class:`~repro.telemetry.probes.ServiceProbe`.
    ``audit`` goes to the broker, which sets it on every lease frame and
    honours it in the inline slot (a campaign's ``--audit``; the service
    never sets it).
    """

    def __init__(self, manager, shards: int, on_settled, retries: int,
                 backoff_base_s: float = BACKOFF_BASE_S,
                 backoff_max_s: float = BACKOFF_MAX_S,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
                 probe=None, audit: bool = False) -> None:
        self.manager = manager
        self.on_settled = on_settled
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.pool = LeaseBroker(
            shards,
            self._on_result,
            heartbeat_s=heartbeat_s,
            lease_timeout_s=lease_timeout_s,
            on_fleet_change=self._fleet_changed,
            audit=audit,
        )
        # Drop per-key retry bookkeeping the moment the manager forgets
        # a unit (e.g. every waiter cancelled mid-backoff) — otherwise
        # `_attempts` grows forever on cancel-heavy workloads.
        self.manager.on_drop = self._attempts_drop
        self._probe = probe
        self._wake = asyncio.Event()
        self._gate = asyncio.Event()  # cleared == paused
        self._gate.set()
        self._scheduler: asyncio.Task | None = None
        self._retry_tasks: set = set()
        self._attempts: dict[str, int] = {}  # key -> failed attempts
        self.counters = {"executed": 0, "retried": 0, "died": 0}

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Spawn the fleet and start leasing."""
        self.pool.start()
        loop = asyncio.get_running_loop()
        self._scheduler = loop.create_task(self._schedule_loop())
        self._wake.set()

    async def stop(self) -> None:
        """Stop leasing, cancel pending retries, and close the fleet."""
        self._wake.set()
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
        for task in list(self._retry_tasks):
            task.cancel()
        self.pool.close()

    def pause(self) -> None:
        """Stop leasing new work (in-flight leases drain normally)."""
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()
        self._wake.set()

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
                    self._complete(key, summary)
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
            summary = _finish(spec, body, wall_s, self.manager.fingerprint)
            self._attempts.pop(key, None)
            self.counters["executed"] += 1
            self._complete(key, summary, wall_s=wall_s)
        else:  # "err" (worker exception) or "died" (killed shard)
            error = outcome[1]
            if kind == "died":
                self.counters["died"] += 1
            attempts = self._attempts.get(key, 0) + 1
            self._attempts[key] = attempts
            if attempts > self.retries:
                self._attempts.pop(key, None)
                self.on_settled(key, self.manager.fail(key, error), None)
            else:
                self.counters["retried"] += 1
                delay = min(
                    self.backoff_max_s,
                    self.backoff_base_s * (2 ** (attempts - 1)),
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

    def _complete(self, key: str, summary, wall_s=None) -> None:
        """Settle ``key`` as done: executed here iff ``wall_s`` is set."""
        jobs = self.manager.complete(
            key, wall_s=wall_s, executed=wall_s is not None,
        )
        self.on_settled(key, jobs, summary)

    def _attempts_drop(self, key: str) -> None:
        """Manager forgot a unit (all waiters gone): forget its retries."""
        self._attempts.pop(key, None)

    def _fleet_changed(self) -> None:
        """Broker capacity changed: wake the scheduler, refresh gauges."""
        self._wake.set()
        if self._probe is not None:
            self._update_gauges()

    def _update_gauges(self) -> None:
        self._probe.gauges(
            queue_depth=self.manager.queue_depth,
            inflight=self.manager.inflight,
            shards=len(self.pool.busy_leases),
            workers=self.pool.workers_connected,
        )
