"""Stream prefetcher (Table 2: nstreams / distance / degree).

A classic multi-stream next-line prefetcher in the style of Srinath et
al. [HPCA 2007]: up to ``nstreams`` concurrently tracked streams, each
with a direction, a confirmation counter, and a prefetch frontier kept
``distance`` lines ahead of the demand stream; every confirming access
advances the frontier by ``degree`` lines.

Table 2 configures 64/32/4 for the Niagara-like server and 64/8/1 for
the Snapdragon-like mobile system.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["StreamPrefetcher", "PrefetcherConfig"]

_MATCH_WINDOW = 16  # lines within which an access can join a stream
_TRAIN_THRESHOLD = 2  # confirmations before prefetching starts


@dataclass(frozen=True)
class PrefetcherConfig:
    """Stream prefetcher knobs (Table 2 row "Stream Prefetcher").

    ``spacing`` is the issue pacing in DRAM cycles: hardware prefetchers
    trickle their requests into the memory controller rather than
    dumping a whole degree-sized batch in one cycle, and that spacing is
    visible to MiL's look-ahead window (a batch of simultaneously-ready
    prefetches would block every long-code slot).
    """

    nstreams: int = 64
    distance: int = 32
    degree: int = 4
    spacing: int = 12


@dataclass(slots=True)
class _Stream:
    last_line: int
    direction: int  # +1 or -1
    confirmations: int
    frontier: int  # next line index to prefetch


class StreamPrefetcher:
    """Tracks access streams and emits prefetch line addresses.

    An access joins the first stream, in table order, whose last line
    lies within ``_MATCH_WINDOW`` lines of it.  Streams are indexed by
    the ``_MATCH_WINDOW``-line window their last line falls in, so the
    match looks at three windows instead of the whole table.  Each
    access touches at most one stream, so keeping the table indices in
    recency order makes the least recently used stream the first one.
    """

    def __init__(self, config: PrefetcherConfig, line_bytes: int = 64):
        self.config = config
        self.line_bytes = line_bytes
        self._streams: list[_Stream] = []
        # Table indices, least recently used first.
        self._recency: OrderedDict[int, None] = OrderedDict()
        # window (last_line // _MATCH_WINDOW) -> table indices.
        self._windows: dict[int, list[int]] = {}
        self.issued = 0

    def _match(self, line: int) -> int:
        """Lowest table index of a stream within reach of ``line``; -1 if none."""
        streams = self._streams
        windows = self._windows
        window = line // _MATCH_WINDOW
        best = -1
        for key in (window - 1, window, window + 1):
            for i in windows.get(key, ()):
                if (best < 0 or i < best) and (
                    abs(line - streams[i].last_line) <= _MATCH_WINDOW
                ):
                    best = i
        return best

    def _move(self, i: int, stream: _Stream, line: int) -> None:
        """Set stream ``i``'s last line, keeping the window index current."""
        old = stream.last_line // _MATCH_WINDOW
        new = line // _MATCH_WINDOW
        if old != new:
            windows = self._windows
            bucket = windows[old]
            bucket.remove(i)
            if not bucket:
                del windows[old]
            windows.setdefault(new, []).append(i)
        stream.last_line = line

    def observe(self, address: int) -> list[int]:
        """Feed one demand access; returns line addresses to prefetch."""
        line = address // self.line_bytes
        i = self._match(line)
        if i < 0:
            self._allocate(line)
            return []
        stream = self._streams[i]
        self._recency.move_to_end(i)
        delta = line - stream.last_line
        if delta == 0:
            return []
        direction = 1 if delta > 0 else -1
        self._move(i, stream, line)
        if direction == stream.direction:
            stream.confirmations += 1
            if stream.confirmations >= _TRAIN_THRESHOLD:
                return self._advance(stream, line)
            return []
        # Direction flip: retrain the stream in the new direction.
        stream.direction = direction
        stream.confirmations = 1
        stream.frontier = line + direction
        return []

    def _advance(self, stream: _Stream, line: int) -> list[int]:
        cfg = self.config
        limit = line + stream.direction * cfg.distance
        out = []
        for _ in range(cfg.degree):
            nxt = stream.frontier
            past_limit = (
                nxt > limit if stream.direction > 0 else nxt < limit
            )
            if past_limit:
                break
            behind = (
                nxt <= line if stream.direction > 0 else nxt >= line
            )
            if behind:
                stream.frontier = line + stream.direction
                nxt = stream.frontier
            out.append(nxt * self.line_bytes)
            stream.frontier = nxt + stream.direction
        self.issued += len(out)
        return out

    def _allocate(self, line: int) -> None:
        stream = _Stream(
            last_line=line,
            direction=1,
            confirmations=0,
            frontier=line + 1,
        )
        streams = self._streams
        windows = self._windows
        if len(streams) >= self.config.nstreams:
            victim, _ = self._recency.popitem(last=False)
            window = streams[victim].last_line // _MATCH_WINDOW
            bucket = windows[window]
            bucket.remove(victim)
            if not bucket:
                del windows[window]
            streams[victim] = stream
        else:
            victim = len(streams)
            streams.append(stream)
        self._recency[victim] = None
        windows.setdefault(line // _MATCH_WINDOW, []).append(victim)

    @property
    def active_streams(self) -> int:
        return len(self._streams)
