"""Per-rank refresh scheduling.

Every rank must receive a REFRESH on average once per tREFI.  The
controller may defer a few intervals (JEDEC allows up to 8 postponed
refreshes); this model keeps a per-rank debt counter so deferrals are
eventually repaid.  Refresh matters to MiL indirectly: it inflates the
idle-gap distribution of Figure 4 and contributes the refresh slice of
the Figure 18 energy breakdown.
"""

from __future__ import annotations

from .timing import TimingParams

__all__ = ["RefreshScheduler"]

MAX_POSTPONED = 8


class RefreshScheduler:
    """Tracks refresh obligations for every rank on a channel."""

    def __init__(self, timing: TimingParams, ranks: int):
        self.timing = timing
        self.ranks = ranks
        # Next cycle each rank accrues one refresh obligation.
        self._next_due = [timing.REFI] * ranks
        self._debt = [0] * ranks
        # Earliest cycle any rank accrues its next obligation: before
        # it, accrue() has nothing to do (the controller's cheap gate).
        self.next_accrual = timing.REFI
        # True when some rank has exhausted its postponement budget and
        # must refresh before anything else.  Kept current by accrue
        # and paid, so the controller's per-event test is a read.
        self.overdue = False

    def accrue(self, now: int) -> None:
        """Convert elapsed time into refresh debt.

        Debt is clamped to :data:`MAX_POSTPONED`: the JEDEC budget is 8
        postponed refreshes, and a long event-skip over an empty queue
        must not batch-accrue an unbounded backlog that the controller
        then burns down in one urgent refresh storm.  Intervals beyond
        the budget are forgiven — a rank idle that long is the regime
        real systems cover with self-refresh, and what matters to the
        model is that refresh *spacing* stays honest once traffic
        resumes.
        """
        if now < self.next_accrual:
            return
        refi = self.timing.REFI
        for rank in range(self.ranks):
            if self._next_due[rank] > now:
                continue
            missed = (now - self._next_due[rank]) // refi + 1
            self._debt[rank] = min(MAX_POSTPONED, self._debt[rank] + missed)
            self._next_due[rank] += missed * refi
        self.next_accrual = min(self._next_due)
        self.overdue = max(self._debt) >= MAX_POSTPONED

    def debt(self, rank: int) -> int:
        """Outstanding refresh obligations for ``rank``."""
        return self._debt[rank]

    def urgent(self, rank: int) -> bool:
        """True when the rank has exhausted its postponement budget."""
        return self._debt[rank] >= MAX_POSTPONED

    def any_debt(self) -> bool:
        """True when at least one refresh is owed somewhere."""
        return any(self._debt)

    def pending_ranks(self) -> list[int]:
        """Ranks with at least one refresh owed, most indebted first."""
        owed = [r for r in range(self.ranks) if self._debt[r] > 0]
        return sorted(owed, key=lambda r: -self._debt[r])

    def paid(self, rank: int) -> None:
        """Record that one refresh was issued to ``rank``."""
        if self._debt[rank] <= 0:
            raise ValueError(f"rank {rank} has no refresh debt to pay")
        self._debt[rank] -= 1
        self.overdue = max(self._debt) >= MAX_POSTPONED

    def next_event(self) -> int:
        """Cycle at which the next obligation accrues (for event skipping).

        Pure query — no accrual happens here.  Only
        :meth:`ChannelController.sync` (called from ``step``) turns
        elapsed time into debt, which is what lets the controller's own
        ``next_event`` stay side-effect free.  If intervals have already
        elapsed, the returned cycle is simply in the past and the
        caller's ``now + 1`` floor wakes it immediately, so no refresh
        is ever missed (the purity contract in DESIGN.md, "Event
        core").
        """
        return self.next_accrual
