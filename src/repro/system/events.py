"""Cross-channel event heap for the event-driven simulation core.

One binary heap holds every future wake-up the simulator knows about:

* **completion events** — a demand read's data burst finishing (these
  are exact and never invalidated);
* **core arm times** — the cycle a core's next record clears its think
  time (deduplicated: at most one live entry per core);
* **controller wakes** — ``ChannelController.next_event`` results,
  lazily invalidated by a per-channel version stamp whenever the
  controller is rescheduled.

Invalidation is *lazy* (the classic heap-with-versions pattern): a
superseded entry stays in the heap and is discarded, and counted, when
it reaches the top.  ``pops``/``stale`` expose the hit rate — the
telemetry layer republishes them as ``sim.event_queue.pops`` and
``sim.event_queue.stale``.

This module is internal to ``repro.system``: the only supported
consumer is :mod:`repro.system.simulator` (enforced by
``tools/lint_boundaries.py``).
"""

from __future__ import annotations

import heapq

__all__ = ["EventQueue"]

# Entry tags; completion < core < controller so same-cycle entries pop
# in a deterministic order (the round processor groups them anyway).
_COMPLETION = 0
_CORE = 1
_CTRL = 2


class EventQueue:
    """Lazy-invalidated event heap over completions, cores, channels."""

    __slots__ = ("_heap", "_ctrl_version", "_core_arm", "pops", "stale")

    def __init__(self, channels: int, cores: int):
        self._heap: list = []
        # Latest pushed version per channel; an entry whose stamp does
        # not match is stale.
        self._ctrl_version = [0] * channels
        # Latest armed wake time per core (-1: no live entry); doubles
        # as the dedupe filter and the validity stamp.
        self._core_arm = [-1] * cores
        self.pops = 0
        self.stale = 0

    def push_completion(self, when: int, serial: int) -> None:
        """A demand read's data finishes at ``when``.  Always valid."""
        heapq.heappush(self._heap, (when, _COMPLETION, serial, 0))

    def push_core(self, core_id: int, when: int) -> None:
        """Arm ``core_id`` at ``when``; replaces any earlier arm."""
        if self._core_arm[core_id] == when:
            return  # identical live entry already queued
        self._core_arm[core_id] = when
        heapq.heappush(self._heap, (when, _CORE, core_id, 0))

    def push_ctrl(self, channel: int, when: int) -> None:
        """Schedule ``channel`` at ``when``, superseding earlier wakes."""
        version = self._ctrl_version[channel] + 1
        self._ctrl_version[channel] = version
        heapq.heappush(self._heap, (when, _CTRL, channel, version))

    def cancel_ctrl(self, channel: int) -> None:
        """Invalidate any queued wake for ``channel`` (idle forever)."""
        self._ctrl_version[channel] += 1

    def pop_round(self):
        """Pop every valid entry at the earliest populated cycle.

        Returns ``(cycle, completions, cores, channels)`` — serials in
        heap (finish, serial) order, core and channel ids as popped —
        or ``None`` when no valid entry remains (deadlock upstream).
        """
        heap = self._heap
        ctrl_version = self._ctrl_version
        core_arm = self._core_arm
        heappop = heapq.heappop
        while heap:
            when = heap[0][0]
            completions: list = []
            cores: list = []
            channels: list = []
            pops = stale = 0
            while heap and heap[0][0] == when:
                _, tag, key, version = heappop(heap)
                pops += 1
                if tag == _COMPLETION:
                    completions.append(key)
                elif tag == _CORE:
                    if core_arm[key] == when:
                        core_arm[key] = -1
                        cores.append(key)
                    else:
                        stale += 1
                elif ctrl_version[key] == version:
                    channels.append(key)
                else:
                    stale += 1
            self.pops += pops
            self.stale += stale
            if completions or cores or channels:
                return when, completions, cores, channels
            # Everything at this cycle was stale; keep draining.
        return None
