"""Shared experiment infrastructure, built on :mod:`repro.campaign`.

Figures 16-19 and 22 all consume the same 110 simulation runs
(2 systems x 11 benchmarks x 5 policies), and the benchmark harness
executes each figure in its own pytest process.  Experiments describe
their runs as :class:`~repro.campaign.RunSpec` values and hand them to
:func:`gather`, which serves cache hits from the content-addressed
on-disk store and fans misses out over worker shards (``REPRO_JOBS``
/ ``--jobs`` of them; serial by default).  Cache invalidation is
automatic: the cache key embeds a fingerprint of the model source, so
there is no version to bump.

Set ``REPRO_NO_CACHE=1`` to force fresh runs and skip cache writes.
"""

from __future__ import annotations

from ..campaign import CampaignRunner, RunSpec, cache_dir
from ..core.framework import RunSummary

__all__ = [
    "EXPERIMENT_ACCESSES_PER_CORE",
    "cache_dir",
    "gather",
    "normalized",
]

# Scale used by every experiment unless overridden: large enough for
# stable statistics, small enough to keep a cold full-campaign run in
# minutes on a laptop.
EXPERIMENT_ACCESSES_PER_CORE = 5000


def gather(
    specs, jobs: int | None = None, sink=None
) -> dict[RunSpec, RunSummary]:
    """Run every distinct spec (cached, possibly parallel) and map results.

    The canonical experiment shape: build the figure's specs up front,
    ``gather`` them, then look summaries up by spec equality.
    """
    return CampaignRunner(jobs=jobs, sink=sink).run(specs)


def normalized(value: float, baseline: float) -> float:
    """Safe ratio (1.0 when the baseline is zero)."""
    return value / baseline if baseline else 1.0
