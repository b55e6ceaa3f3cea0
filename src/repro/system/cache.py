"""Set-associative cache model (functional, LRU, writeback).

The cache hierarchy's job in this reproduction is to turn each
benchmark's CPU-level access stream into the *memory* traffic the DRAM
simulator sees: demand misses, dirty writebacks, and prefetches.  Hit
timing is folded into the per-request "gap" cycles computed by
:mod:`repro.system.hierarchy`, so this model is functional (no
cycle-accurate cache pipeline) — exactly the fidelity the paper's
results depend on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["Cache", "AccessResult"]


class AccessResult(NamedTuple):
    """Outcome of one cache access (immutable, built once per access)."""

    hit: bool
    writeback: int | None  # line address of an evicted dirty victim
    line: int  # line address of the access


class _Sets(dict):
    """Set index -> that set's dict, made on the set's first lookup.

    A set's dict maps line address -> dirty flag, oldest entry first
    (the LRU victim).  Sets start empty, or as :meth:`Cache.warm` left
    them: set ``i`` then holds ``lines[starts[i]:ends[i]]`` with their
    ``dirty`` flags.
    """

    def __init__(self, warm=None):
        super().__init__()
        self._warm = warm  # (lines, dirty, starts, ends) or None

    def __missing__(self, index: int) -> dict[int, bool]:
        ways = {}
        if self._warm is not None:
            lines, dirty, starts, ends = self._warm
            lo, hi = starts[index], ends[index]
            ways = dict(zip(lines[lo:hi].tolist(), dirty[lo:hi].tolist()))
        self[index] = ways
        return ways


class Cache:
    """An LRU, write-allocate, writeback set-associative cache.

    The trace filter in :mod:`repro.system.hierarchy` inlines
    :meth:`access` on ``_sets`` (a :class:`_Sets`) and ``_set_mask``.
    """

    def __init__(
        self, size_bytes: int, ways: int, line_bytes: int = 64, name: str = ""
    ):
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError("size must divide evenly into sets")
        self.name = name or f"{size_bytes // 1024}KB/{ways}way"
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("set count must be a power of two")
        self._set_mask = self.num_sets - 1
        self._sets = _Sets()

        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _set_for(self, line: int) -> dict[int, bool]:
        return self._sets[(line // self.line_bytes) & self._set_mask]

    def _line_of(self, address: int) -> int:
        return address - (address % self.line_bytes)

    def access(self, address: int, is_write: bool) -> AccessResult:
        """Look up ``address``; allocate on miss; return what happened."""
        line_bytes = self.line_bytes
        line = address - address % line_bytes
        ways = self._sets[(line // line_bytes) & self._set_mask]
        if line in ways:
            self.hits += 1
            ways[line] = ways.pop(line) or is_write  # reinsert as MRU
            return AccessResult(True, None, line)

        self.misses += 1
        writeback = None
        if len(ways) >= self.ways:
            victim = next(iter(ways))
            if ways.pop(victim):
                self.writebacks += 1
                writeback = victim
        ways[line] = is_write
        return AccessResult(False, writeback, line)

    def contains(self, address: int) -> bool:
        """Presence probe with no LRU side effect."""
        line = self._line_of(address)
        return line in self._set_for(line)

    def touch(self, address: int) -> None:
        """Refresh LRU position without changing dirty state (if present)."""
        line = self._line_of(address)
        ways = self._set_for(line)
        if line in ways:
            ways[line] = ways.pop(line)

    def fill(self, address: int, dirty: bool = False) -> int | None:
        """Install a line (e.g. a prefetch); returns a dirty victim or None."""
        line_bytes = self.line_bytes
        line = address - address % line_bytes
        ways = self._sets[(line // line_bytes) & self._set_mask]
        if line in ways:
            ways[line] = ways.pop(line) or dirty
            return None
        writeback = None
        if len(ways) >= self.ways:
            victim = next(iter(ways))
            if ways.pop(victim):
                self.writebacks += 1
                writeback = victim
        ways[line] = dirty
        return writeback

    def warm(self, lines: np.ndarray, dirty: np.ndarray) -> None:
        """Take the state one :meth:`fill` per line would leave.

        ``lines`` are distinct line addresses, filled in order into this
        empty cache; ``dirty`` holds their flags.  The fills only ever
        evict earlier lines, so each set ends up holding the last
        ``ways`` lines that map to it, oldest first: that closed form is
        all this computes.  Each set's dict is built the first time a
        lookup reaches it, and victims of the skipped fills are not
        counted in :attr:`writebacks`.
        """
        sets = (lines // self.line_bytes) & self._set_mask
        # Set indices of 16 bits or fewer make the stable sort a radix sort.
        sets = sets.astype(np.min_scalar_type(self._set_mask))
        order = np.argsort(sets, kind="stable")
        counts = np.bincount(sets, minlength=self.num_sets)
        ends = np.cumsum(counts)
        starts = np.maximum(ends - counts, ends - self.ways)
        self._sets = _Sets(
            (lines[order], dirty[order], starts.tolist(), ends.tolist())
        )

    def invalidate(self, address: int) -> bool:
        """Drop a line; returns True if it was present and dirty."""
        line = self._line_of(address)
        ways = self._set_for(line)
        if line in ways:
            return ways.pop(line)
        return False

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
