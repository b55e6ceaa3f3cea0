"""Long-running campaign service: async job API over the campaign engine.

``repro.serve`` keeps the engine every campaign runs on resident as an
asyncio service:

* :mod:`~repro.serve.engine` — :class:`Engine`, the one scheduler loop
  with retry-with-backoff that leases a job manager's work to a lease
  broker; :meth:`~repro.campaign.runner.CampaignRunner.run` drives one
  for a single job and returns;
* :mod:`~repro.serve.jobs` — the job model and manager: submit /
  status / cancel / list, priority + FIFO scheduling, bounded queues
  with back-pressure, per-key lease coalescing;
* :mod:`~repro.serve.events` — seq-numbered per-job event logs with
  snapshot-plus-tail subscription (a client that connects mid-campaign
  sees a consistent prefix and then the live tail);
* :mod:`~repro.serve.shards` — the lease broker: one fleet of members,
  forked shards (``--shards``) and remote TCP workers alike, with lease
  tracking, heartbeats, death detection, and shard respawn;
* :mod:`~repro.serve.worker` — the frame loop every member runs, and
  the ``repro worker`` daemon that dials a service to run it remotely;
* :mod:`~repro.serve.journal` — the append-only JSONL job table that
  lets a restarted service resume queued and leased work;
* :mod:`~repro.serve.store` — the multi-tenant result store layered on
  the content-addressed campaign cache, with per-namespace quotas and
  an eviction/GC sweep;
* :mod:`~repro.serve.service` — :class:`CampaignService`, the engine
  kept resident with the store, the journal and the metrics;
* :mod:`~repro.serve.server` — the newline-delimited-JSON HTTP API
  (TCP and Unix-socket listeners on asyncio streams);
* :mod:`~repro.serve.client` — the synchronous Python client the
  ``repro submit`` / ``repro jobs`` verbs are built on.

A campaign submitted through the service produces the same
content-addressed cache keys and byte-identical ``RunSummary`` payloads
as the same campaign run via ``repro campaign`` locally, by
construction: both run on the same engine (see ``docs/SERVICE.md``).
"""

# Exports load on first use, so a process that only imports the client
# (``repro.serve.client``) does not load the service, asyncio or numpy.
_LAZY = {
    "BackPressureError": "client",
    "ServeClient": "client",
    "ServeError": "client",
    "Engine": "engine",
    "Job": "jobs",
    "JobManager": "jobs",
    "JobState": "jobs",
    "QueueFullError": "jobs",
    "Journal": "journal",
    "CampaignService": "service",
    "ServiceConfig": "service",
    "LeaseBroker": "shards",
    "ResultStore": "store",
    "WorkerAuthError": "worker",
    "WorkerDaemon": "worker",
}

__all__ = sorted(_LAZY)


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.serve' has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(list(globals()) + list(_LAZY))
