"""The equivalence oracle for the event core: full scans, lockstep loop.

Production has one scheduler and one driver: ``ChannelController``
keeps per-bank scheduling records, memoises its fused ``(pick, wake)``
pass and its next-wake time, and ``repro.system.simulator`` drives the
controllers off a cross-channel event heap.  This module keeps the
original, obviously-correct versions of both, for tests to compare the
production path against:

* :class:`FRFCFSScheduler` — the full-scan FR-FCFS candidate generator
  and picker the fused pass replaced;
* :class:`OracleController` — a ``ChannelController`` that answers
  every scheduling query with an un-memoised full scan and never trusts
  its wake cache;
* :func:`run_lockstep` — the advance-everything-to-the-global-minimum
  loop the event heap replaced, over the same ``_SimCore`` transitions;
* :func:`lockstep_oracle` — swaps both into ``repro.system.simulator``,
  so ``simulate`` and ``run_spec`` run on the oracle path unchanged.

The two paths must produce byte-identical command logs (see DESIGN.md,
"Event core").
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from unittest import mock

from repro.controller import CandidateCommand, ChannelController, MemoryRequest
from repro.dram.channel import DRAMChannel
from repro.dram.commands import CommandType
from repro.system import simulator
from repro.system.simulator import _SimCore, accrue_pending_cycles

__all__ = [
    "FRFCFSScheduler",
    "OracleController",
    "full_scan",
    "lockstep_oracle",
    "run_lockstep",
]


class FRFCFSScheduler:
    """Builds and ranks candidate commands for one channel."""

    def __init__(self, channel: DRAMChannel):
        self.channel = channel

    def candidates(
        self,
        entries: list[MemoryRequest],
        now: int,
        bus_cycles_hint: int = 4,
    ) -> list[CandidateCommand]:
        """Candidate commands for ``entries`` (already oldest-first).

        ``bus_cycles_hint`` sizes the data-bus occupancy check for
        column commands; the coding policy may still shorten or extend
        the burst at issue time (only ever *up* to the hint, so the
        earliest-time computation stays conservative).
        """
        channel = self.channel
        earliest_issue = channel.earliest_issue
        banks = channel.banks
        out: list[CandidateCommand] = []
        read_cmd, write_cmd = CommandType.READ, CommandType.WRITE
        act_cmd, pre_cmd = CommandType.ACTIVATE, CommandType.PRECHARGE

        # Rows wanted per bank, to defer precharges while hits remain.
        open_rows_wanted: dict[tuple[int, int, int], set[int]] = {}
        conflicts: list = []
        banks_handled: set[tuple[int, int, int]] = set()

        for req in entries:
            m = req.mapped
            rank, group, bank_idx = m.rank, m.bank_group, m.bank
            open_row = banks[rank][group][bank_idx].open_row
            key = (rank, group, bank_idx)
            open_rows_wanted.setdefault(key, set()).add(m.row)

            if open_row == m.row:
                cmd = write_cmd if req.is_write else read_cmd
                out.append(
                    CandidateCommand(
                        cmd, rank, group, bank_idx, m.row,
                        earliest_issue(cmd, rank, group, bank_idx, now,
                                       bus_cycles_hint),
                        req,
                    )
                )
                continue

            if key in banks_handled:
                continue  # one row-management command per bank per pass
            banks_handled.add(key)

            if open_row is None:
                out.append(
                    CandidateCommand(
                        act_cmd, rank, group, bank_idx, m.row,
                        earliest_issue(act_cmd, rank, group, bank_idx, now),
                        req,
                    )
                )
            else:
                conflicts.append((key, open_row))

        # Row conflicts: close the row only once nothing queued still
        # hits it (first-ready preference).
        for (rank, group, bank_idx), open_row in conflicts:
            if open_row in open_rows_wanted[(rank, group, bank_idx)]:
                continue
            out.append(
                CandidateCommand(
                    pre_cmd, rank, group, bank_idx, open_row,
                    earliest_issue(pre_cmd, rank, group, bank_idx, now),
                    None,
                )
            )
        return out

    def pick(
        self, cands: list[CandidateCommand], now: int
    ) -> CandidateCommand | None:
        """Best candidate issueable exactly at ``now`` (or None).

        Ranking: ready column commands oldest-first, then ready
        ACT/PRE in the queue order the candidates were generated in
        (i.e. on behalf of the oldest requests).
        """
        ready = [c for c in cands if c.earliest <= now]
        if not ready:
            return None
        columns = [c for c in ready if c.cmd.is_column]
        if columns:
            return min(
                columns, key=lambda c: (c.request.arrival, c.request.serial)
            )
        return ready[0]

    @staticmethod
    def next_wakeup(cands: list[CandidateCommand]) -> int | None:
        """Earliest cycle any candidate becomes issueable."""
        if not cands:
            return None
        return min(c.earliest for c in cands)


def full_scan(mc: ChannelController, now: int):
    """Un-memoised FR-FCFS ``(pick, wake)`` over ``mc``'s active queue.

    Samples the write-drain hysteresis first, exactly like the fused
    pass, then ranks a candidate list built from scratch.
    """
    mc._sync_drain(now)
    queue = mc.write_queue if mc.draining_now else mc.read_queue
    scheduler = FRFCFSScheduler(mc.channel)
    cands = scheduler.candidates(queue.oldest_first(), now)
    return scheduler.pick(cands, now), scheduler.next_wakeup(cands)


class OracleController(ChannelController):
    """A controller with every scheduling memo bypassed.

    Each ``step`` and ``next_event`` recomputes the candidate list from
    scratch through :class:`FRFCFSScheduler`, and the wake cache is
    invalidated after every ``next_event`` so it can never answer.
    """

    def _schedule_query(self, now: int):
        return full_scan(self, now)

    def next_event(self, now: int) -> int | None:
        wake = super().next_event(now)
        self._wake_version = -1
        return wake


def run_lockstep(engine: _SimCore, max_cycles: int) -> None:
    """Advance every core and controller to each global event time.

    The original main loop: each iteration visits every core and every
    controller, then jumps to the minimum over completion times,
    controller wakes and core arm times.  It never touches the event
    heap, so a run's ``event_queue_pops`` stays zero.
    """
    cores = engine.cores
    controllers = engine.controllers
    completion_heap: list[tuple[int, int]] = []  # (finish, serial)
    mlp = engine.mlp

    def push(finish: int, serial: int) -> None:
        heapq.heappush(completion_heap, (finish, serial))

    dirty: set = set()  # unused by this driver; throwaway sink
    now = 0
    while now < max_cycles:
        # 1. Retire completions whose data has arrived.
        ready: list = []
        while completion_heap and completion_heap[0][0] <= now:
            ready.append(heapq.heappop(completion_heap)[1])
        if ready:
            engine._retire_completions(ready, set())

        # 2. Let every core push work into the controllers.
        for core_id, core in enumerate(cores):
            while core.index < len(core.records) and engine._issue_from_core(
                core_id, core, now, dirty
            ):
                pass

        # 3. One scheduling step per controller.
        stepped = [mc.step(now) for mc in controllers]

        # 4. Collect newly scheduled transfers into the heap.
        for mc in controllers:
            engine._collect_completions(mc, push)

        if engine._finished():
            break

        # 5. Jump to the next event.
        candidates: list[int] = []
        if completion_heap:
            candidates.append(completion_heap[0][0])
        for mc, did in zip(controllers, stepped):
            nxt = (now + 1) if did else mc.next_event(now)
            if nxt is not None:
                candidates.append(nxt)
        for core in cores:
            if core.index >= len(core.records):
                continue
            if core.wait_completion_of is not None:
                continue  # completion heap covers the wake-up
            rec = core.records[core.index]
            if not rec.is_write and not rec.is_prefetch:
                if core.outstanding >= mlp:
                    continue  # a completion will free a slot
            candidates.append(max(now + 1, core.earliest))

        if not candidates:
            engine.now = now
            raise engine._deadlock()
        nxt = max(now + 1, min(candidates))
        accrue_pending_cycles(
            controllers, engine.pending_cycles, now, nxt
        )
        now = nxt
    engine.now = now


@contextmanager
def lockstep_oracle():
    """Run ``simulate`` on the oracle: lockstep loop, full-scan controllers.

    Patches ``repro.system.simulator`` for the duration of the block, so
    every caller above it (``simulate``, ``run_spec``, the bench
    kernels) takes the oracle path in this process.
    """
    with mock.patch.object(simulator, "ChannelController", OracleController), \
            mock.patch.object(_SimCore, "run_event", run_lockstep):
        yield
