"""The equivalence oracle for the L2 warm-up: one ``fill`` per line.

Production warms the shared L2 in closed form: :meth:`Cache.warm`
computes which lines each set keeps and builds a set's dict only on its
first lookup.  This module keeps the fill-by-fill warm-up it replaced,
for tests to compare against:

* :func:`eager_warm` — installs the lines in order, as one
  :meth:`Cache.fill` each would (the loop the warm-up used to run),
  dropping victims uncounted as :meth:`Cache.warm` documents;
* :func:`eager_warmup` — swaps it in for :meth:`Cache.warm`, so
  ``build_trace`` runs on the oracle path unchanged.

The two must leave identical caches (see DESIGN.md, "Trace layer").
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.system.cache import Cache

__all__ = ["eager_warm", "eager_warmup"]


def eager_warm(cache: Cache, lines, dirty) -> None:
    """Fill ``lines`` (distinct, in order) one at a time into ``cache``."""
    line_bytes, sets = cache.line_bytes, cache._sets
    set_mask, capacity = cache._set_mask, cache.ways
    for line, flag in zip(lines.tolist(), dirty.tolist()):
        ways = sets[(line // line_bytes) & set_mask]
        if line in ways:
            ways[line] = ways.pop(line) or flag
            continue
        if len(ways) >= capacity:
            ways.pop(next(iter(ways)))
        ways[line] = flag


@contextmanager
def eager_warmup():
    """Run every L2 warm-up inside the block as fill-by-fill."""
    with mock.patch.object(Cache, "warm", eager_warm):
        yield
