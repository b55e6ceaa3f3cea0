"""Bus-level analysis metrics: Figures 4, 5, and 6 of the paper.

All three are derived from the data-bus transaction log:

* **Idle-gap distribution (Figure 4)** — cycles between the end of one
  burst and the start of the next, bucketed like the paper
  (0, 1-7, 8-15, 16-31, 32-63, 64+).
* **Pending split (Figure 5)** — execution cycles divided into
  bus-utilized, idle-with-pending-requests, and no-pending.
* **Slack distribution (Figure 6)** — per gap, how many cycles the
  first transaction could have been extended without delaying the
  second, i.e. the gap minus any mandatory turnaround bubble.  This is
  the headroom MiL's long codes consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from ..dram.channel import BusTransaction
from ..dram.timing import TimingParams

__all__ = [
    "GAP_BUCKETS",
    "bucket_label",
    "idle_gap_histogram",
    "slack_histogram",
    "PendingSplit",
    "pending_split",
]

# Figure 4/6 bucket edges (inclusive lower bounds).
GAP_BUCKETS = (0, 1, 8, 16, 32, 64)


def bucket_label(lower: int) -> str:
    """Human-readable label for a bucket's lower edge."""
    idx = GAP_BUCKETS.index(lower)
    if lower == 0:
        return "0"
    if idx == len(GAP_BUCKETS) - 1:
        return f"{lower}+"
    return f"{lower}-{GAP_BUCKETS[idx + 1] - 1}"


def _bucket_of(value: int) -> int:
    lower = GAP_BUCKETS[0]
    for edge in GAP_BUCKETS:
        if value >= edge:
            lower = edge
    return lower


_START = attrgetter("start")

# Label of every value below the last edge; the rest share _TOP_LABEL.
_LABELS = tuple(bucket_label(_bucket_of(v)) for v in range(GAP_BUCKETS[-1]))
_TOP_LABEL = bucket_label(GAP_BUCKETS[-1])


def idle_gap_histogram(
    transactions: list[BusTransaction],
) -> dict[str, int]:
    """Figure 4: distribution of idle cycles between successive bursts."""
    hist = {bucket_label(b): 0 for b in GAP_BUCKETS}
    labels, top = _LABELS, len(_LABELS)
    ordered = sorted(transactions, key=_START)
    for prev, cur in zip(ordered, ordered[1:]):
        gap = max(0, cur.start - prev.end)
        hist[labels[gap] if gap < top else _TOP_LABEL] += 1
    return hist


def slack_histogram(
    transactions: list[BusTransaction],
    timing: TimingParams,
) -> dict[str, int]:
    """Figure 6: slack between successive bursts.

    The slack is the gap minus the turnaround bubble that would still be
    required if the first burst were extended (rank switches and
    read/write direction changes keep their tRTRS bubble; Section 3.1
    notes such turnaround-limited gaps cannot be exploited).
    """
    hist = {bucket_label(b): 0 for b in GAP_BUCKETS}
    labels, top = _LABELS, len(_LABELS)
    ordered = sorted(transactions, key=_START)
    for prev, cur in zip(ordered, ordered[1:]):
        gap = max(0, cur.start - prev.end)
        switch = prev.rank != cur.rank or prev.is_write != cur.is_write
        slack = max(0, gap - timing.RTRS) if switch else gap
        hist[labels[slack] if slack < top else _TOP_LABEL] += 1
    return hist


@dataclass(frozen=True)
class PendingSplit:
    """Figure 5: how execution cycles divide per channel."""

    utilized: int  # data bus transferring
    idle_pending: int  # bus idle but requests queued: MiL's opportunity
    no_pending: int  # nothing to do

    @property
    def total(self) -> int:
        return self.utilized + self.idle_pending + self.no_pending

    def fractions(self) -> dict[str, float]:
        total = self.total or 1
        return {
            "utilized": self.utilized / total,
            "idle_pending": self.idle_pending / total,
            "no_pending": self.no_pending / total,
        }


def pending_split(
    cycles: int, busy_cycles: int, pending_cycles: int
) -> PendingSplit:
    """Classify one channel's cycles for Figure 5.

    ``pending_cycles`` is the controller's queued-request time integral;
    bus-busy time approximately nests inside it (data transfers overlap
    queue occupancy), so idle-with-pending is the difference.
    """
    if busy_cycles > cycles:
        raise ValueError("busy cycles exceed total cycles")
    utilized = busy_cycles
    idle_pending = max(0, min(pending_cycles, cycles) - busy_cycles)
    no_pending = cycles - utilized - idle_pending
    return PendingSplit(utilized, idle_pending, no_pending)
