"""Helpers shared by the benchmark's workloads.

Paths, the output digest, quantiles, peak memory, fresh scratch
directories, and the :class:`Tally` that counts attempted and failed
operations.  Nothing here imports the program under test, so
``run.py`` can refuse to start before touching it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Everything a run writes (temporary caches and stores, span files)
# lives under this directory of the checkout; .gitignore names it.
WORK = ROOT / ".perfbench"
PINS = Path(__file__).resolve().parent / "pins.json"


def summary_digest(summary: dict) -> str:
    """sha256 of a RunSummary dict with ``stats`` stripped, sorted JSON.

    The served result rows carry exactly this body (the cache payload's
    ``summary`` block), so one digest compares every execution path.
    """
    body = {k: v for k, v in summary.items() if k != "stats"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()


def clock() -> float:
    """Seconds on the program's own monotonic clock.

    Campaign events and telemetry phase timers are stamped on this
    clock, so latencies and spans taken here line up with them.
    """
    from repro.telemetry.clock import monotonic_ts

    return monotonic_ts()


def ratio(num, den) -> float:
    """``num / den``, or 0 when nothing was measured."""
    return num / den if den else 0.0


def mean(values) -> float:
    return ratio(sum(values), len(values))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    """90th percentile, interpolated between the two nearest samples."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any waited-for descendant.

    Linux reports ``RUSAGE_CHILDREN.ru_maxrss`` as the peak of the
    largest single child (grandchildren included once their parent
    reaped them), in KiB.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under :data:`WORK`, removed on exit."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK / "tmp"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def load_pins(workload: str) -> dict:
    """Pinned ``{spec slug: digest}`` of the default seed's outputs."""
    try:
        return json.loads(PINS.read_text()).get(workload, {})
    except FileNotFoundError:
        return {}


class Tally:
    """Attempted and failed operations, plus why each failure happened.

    An operation is one run, spec or job; a failure is a raise, a
    refusal, a non-``done`` job, a missing row, or an output mismatch.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> bool:
        if not ok:
            self.fail(reason)
        return ok

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class DigestCheck:
    """Every output of one spec must agree, and with its pin if pinned.

    Specs are named by slug: the benchmark's specs carry no overrides,
    and without overrides the slug spells out every field of a spec.
    """

    def __init__(self, tally: Tally, pins: dict) -> None:
        self.tally = tally
        self.pins = pins
        self.seen: dict[str, str] = {}

    def check(self, slug: str, digest: str, where: str) -> bool:
        first = self.seen.setdefault(slug, digest)
        if not self.tally.check(
            digest == first,
            f"{where}: {slug} digest {digest[:12]} != earlier {first[:12]}",
        ):
            return False
        pinned = self.pins.get(slug, digest)
        return self.tally.check(
            pinned == digest,
            f"{where}: {slug} digest {digest[:12]} != pinned {pinned[:12]}",
        )

    def report(self) -> list[str]:
        return [f"digest {slug} {d}" for slug, d in sorted(self.seen.items())]
