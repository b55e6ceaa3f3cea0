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

__all__ = ["Cache", "AccessResult"]


class AccessResult(NamedTuple):
    """Outcome of one cache access (immutable, built once per access)."""

    hit: bool
    writeback: int | None  # line address of an evicted dirty victim
    line: int  # line address of the access


class Cache:
    """An LRU, write-allocate, writeback set-associative cache."""

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
        # Per set: insertion-ordered dict of line address -> dirty flag.
        # Oldest entry is the LRU victim.
        self._sets: list[dict[int, bool]] = [dict() for _ in range(self.num_sets)]

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

    def fill_lines(self, addresses, dirty) -> None:
        """Install ``addresses`` in order, as one :meth:`fill` each would.

        ``dirty`` is a parallel iterable of flags.  Victims are dropped
        (still counted in :attr:`writebacks`): this is the bulk path for
        pre-filling a cache to steady state.
        """
        line_bytes = self.line_bytes
        sets = self._sets
        set_mask = self._set_mask
        capacity = self.ways
        for address, flag in zip(addresses, dirty):
            line = address - address % line_bytes
            ways = sets[(line // line_bytes) & set_mask]
            if line in ways:
                ways[line] = ways.pop(line) or flag
                continue
            if len(ways) >= capacity:
                if ways.pop(next(iter(ways))):
                    self.writebacks += 1
            ways[line] = flag

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
