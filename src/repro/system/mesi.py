"""MESI coherence directory for the private-L1 / shared-L2 hierarchy.

Table 2 lists MESI as the coherence protocol.  The directory tracks, per
line, which cores hold it and in what state; the hierarchy consults it
on every L1 miss so cross-core sharing produces the right
invalidations, downgrades, and ownership transfers.  The synthetic
workloads share sparingly (like the originals' mostly-partitioned
parallel loops), but the protocol is implemented and tested in full.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["MESIState", "MESIDirectory", "CoherenceOutcome"]


class MESIState(Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


class CoherenceOutcome:
    """What a coherence transaction did (for stats and writeback routing)."""

    def __init__(self):
        self.invalidated: list[int] = []  # cores whose copy was dropped
        self.downgraded: list[int] = []  # cores moved M/E -> S
        self.dirty_writeback = False  # an M copy supplied the data


# Returned, shared and never mutated, by a transaction that touches no
# other core's copy: the common case, and one object fewer per access.
_QUIET = CoherenceOutcome()
# Enum member lookups are slow on the per-access path.
_MODIFIED, _EXCLUSIVE = MESIState.MODIFIED, MESIState.EXCLUSIVE


class MESIDirectory:
    """Full-map directory: line address -> {core: state}."""

    def __init__(self, cores: int):
        if cores < 1:
            raise ValueError("need at least one core")
        self.cores = cores
        self._lines: dict[int, dict[int, MESIState]] = {}
        self.invalidations = 0
        self.downgrades = 0
        self.dirty_transfers = 0

    def state(self, core: int, line: int) -> MESIState:
        """Current state of ``line`` in ``core``'s cache."""
        return self._lines.get(line, {}).get(core, MESIState.INVALID)

    def sharers(self, line: int) -> list[int]:
        """Cores holding a valid copy."""
        return sorted(self._lines.get(line, {}))

    def read(self, core: int, line: int) -> CoherenceOutcome:
        """Core issues a read (BusRd).  M holders downgrade and flush."""
        entry = self._lines.get(line)
        if not entry:
            self._lines[line] = {core: _EXCLUSIVE}
            return _QUIET
        if core in entry:
            return _QUIET  # hit: no directory action

        outcome = CoherenceOutcome()
        for other in entry:
            if entry[other] in (MESIState.MODIFIED, MESIState.EXCLUSIVE):
                if entry[other] is MESIState.MODIFIED:
                    outcome.dirty_writeback = True
                    self.dirty_transfers += 1
                entry[other] = MESIState.SHARED
                outcome.downgraded.append(other)
                self.downgrades += 1
        entry[core] = MESIState.SHARED
        return outcome

    def write(self, core: int, line: int) -> CoherenceOutcome:
        """Core issues a write (BusRdX/upgrade).  All other copies die."""
        entry = self._lines.get(line)
        if not entry:
            self._lines[line] = {core: _MODIFIED}
            return _QUIET
        if core in entry and len(entry) == 1:
            entry[core] = _MODIFIED
            return _QUIET

        outcome = CoherenceOutcome()
        for other in [c for c in entry if c != core]:
            if entry[other] is MESIState.MODIFIED:
                outcome.dirty_writeback = True
                self.dirty_transfers += 1
            del entry[other]
            outcome.invalidated.append(other)
            self.invalidations += 1
        entry[core] = MESIState.MODIFIED
        return outcome

    def evict(self, core: int, line: int) -> bool:
        """Core drops its copy; returns True if it was dirty (M)."""
        entry = self._lines.get(line)
        if not entry or core not in entry:
            return False
        was_dirty = entry[core] is MESIState.MODIFIED
        del entry[core]
        if not entry:
            del self._lines[line]
        return was_dirty
