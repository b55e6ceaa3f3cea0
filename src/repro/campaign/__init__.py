"""Parallel, content-addressed campaign engine for simulation runs.

The experiment layer used to re-derive the same (benchmark x system x
policy) sweep through ad-hoc serial loops, memoised by a hand-bumped
``CACHE_VERSION``.  This subsystem replaces that plumbing with three
pieces:

``RunSpec``
    A frozen, hashable description of exactly one simulation run —
    benchmark, system (plus design-space overrides), policy, look-ahead,
    scale, seed, and MiLConfig overrides.  Specs are the unit of
    planning, execution, caching, and result lookup.
``cache``
    Content-addressed on-disk memoisation: the cache file name embeds a
    hash of the spec *and* a fingerprint of the model source
    (``repro.coding``/``dram``/``controller``/``energy``/``system``/
    ``core``/``workloads``), so editing the model invalidates stale
    summaries automatically.
``CampaignRunner``
    Fans independent specs out over worker shards (count from
    ``--jobs`` / ``REPRO_JOBS``) on the engine ``repro serve`` runs
    too, retries failed runs and dead shards, and emits structured
    progress events through a pluggable sink.

Environment knobs: ``REPRO_JOBS`` (default worker count),
``REPRO_CACHE_DIR`` (cache location), ``REPRO_NO_CACHE=1`` (bypass both
the read and the write path).
"""

from .cache import cache_dir, cache_enabled, cache_path, load, store
from .events import ProgressLine, RunEvent, null_sink
from .fingerprint import model_fingerprint
from .runner import CampaignFailed, CampaignRunner, default_jobs
from .spec import RunSpec

__all__ = [
    "CampaignFailed",
    "CampaignRunner",
    "ProgressLine",
    "RunEvent",
    "RunSpec",
    "cache_dir",
    "cache_enabled",
    "cache_path",
    "default_jobs",
    "load",
    "model_fingerprint",
    "null_sink",
    "store",
]
