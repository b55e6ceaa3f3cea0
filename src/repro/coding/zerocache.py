"""Campaign-wide zero-table cache: encode each (trace, scheme) once.

Every run begins by building per-scheme zero tables over the whole
trace (:func:`~repro.coding.pipeline.precompute_line_zeros`).  A
campaign replays the *same* trace for every policy it compares — the
paired-comparison design of the experiments — so without a cache the
trace is re-encoded under every scheme once per run: a fig16-style
campaign re-pays the full codec cost hundreds of times.

The cache is content-addressed on ``(trace digest, scheme)``: the
digest hashes the actual line payload bytes, so two traces that happen
to share bytes share tables and any change to the data is a guaranteed
miss.  Entries are process-local — campaign workers are long-lived
processes that execute many specs, so each worker pays the encode once
per (trace, scheme) and serves every later run from memory.  Nothing is
persisted: the on-disk run cache (keyed on spec + model fingerprint)
already makes repeat campaigns free, and an in-memory table can never
survive a codec edit.

Cached tables are marked read-only before they are shared between runs;
consumers only ever index them.  ``precompute_line_zeros(cache=False)``
is the uncached path.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

__all__ = [
    "ZeroTableCache",
    "global_cache",
    "lines_digest",
    "reset_global_cache",
]

# Each entry is one int64 per line — a few hundred KB per (trace,
# scheme) at experiment scale.  The bound exists so a pathological
# campaign over thousands of distinct traces cannot grow without limit.
DEFAULT_MAX_ENTRIES = 256


def lines_digest(lines: np.ndarray) -> str:
    """Content digest of a ``(n, 64)`` line array (shape included)."""
    a = np.ascontiguousarray(lines, dtype=np.uint8)
    h = hashlib.sha256()
    h.update(repr(a.shape).encode())
    h.update(a.data)
    return h.hexdigest()


class ZeroTableCache:
    """LRU cache of zero tables keyed on ``(trace digest, scheme)``."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self.max_entries = max_entries
        self._tables: OrderedDict[tuple[str, str], np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._tables)

    def get(self, digest: str, scheme: str) -> np.ndarray | None:
        key = (digest, scheme)
        table = self._tables.get(key)
        if table is None:
            self.misses += 1
            return None
        self._tables.move_to_end(key)
        self.hits += 1
        return table

    def put(self, digest: str, scheme: str, table: np.ndarray) -> np.ndarray:
        table = np.asarray(table)
        table.setflags(write=False)
        self._tables[(digest, scheme)] = table
        self._tables.move_to_end((digest, scheme))
        while len(self._tables) > self.max_entries:
            self._tables.popitem(last=False)
        return table

    def clear(self) -> None:
        self._tables.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        return {
            "entries": len(self._tables),
            "hits": self.hits,
            "misses": self.misses,
        }


_GLOBAL = ZeroTableCache()


def global_cache() -> ZeroTableCache:
    return _GLOBAL


def reset_global_cache() -> None:
    """Drop every cached table (tests; codec hot-reloading sessions)."""
    _GLOBAL.clear()
