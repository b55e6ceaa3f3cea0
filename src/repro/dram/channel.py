"""Cycle-level DRAM channel: banks, bank groups, ranks, and the data bus.

This is the constraint engine under the memory controller.  It answers
two questions:

* :meth:`DRAMChannel.earliest_issue` — from the current device state,
  what is the earliest cycle a given command could legally issue?
* :meth:`DRAMChannel.issue` — commit a command at a cycle, updating all
  the saturating down-counters (modelled as "earliest next cycle"
  registers, the software dual of Figure 11's counters).

Besides the raw per-scope registers, the channel keeps *folded* bounds
that the scheduler reads directly, in one flat list :attr:`bounds`:
per (rank, bank group), the READ and the WRITE slot hold the maximum of
every rank- and group-scope register gating that column command and of
the issue cycle the shared data bus allows; the ACTIVATE slot folds
tRRD and tFAW; one last slot is a constant floor for PRECHARGE, which
only its bank register gates.  ``issue`` refreshes the slots whenever a
register they fold changes, so any command but REFRESH is legal from
``max(now, bank register, bounds[slot])`` — the timing rules stay
defined here, once.

Constraint scopes follow the DDR4 structure the paper leans on
(Section 3.1): per-bank (tRCD/tRAS/tRC/tRTP/tWR/tRP), per-bank-group
(tCCD_L/tRRD_L/tWTR_L), per-rank (tCCD_S/tRRD_S/tWTR_S/tFAW/tRFC), and
per-channel for the shared data bus (burst occupancy, tRTRS rank
switches, read/write turnaround bubbles).

Variable burst lengths — the mechanism MiL rides on — enter through the
``bus_cycles`` argument of column commands: a BL16 read occupies the bus
for 8 cycles instead of 4, and stretches the effective column-to-column
spacing to ``max(tCCD, bus_cycles)``.

Every data-bus transaction is appended to :attr:`transactions`; the
analysis layer derives Figures 4-6 from that log, and the test suite
replays it through :class:`BusAuditor` to prove no overlaps or missing
turnaround bubbles ever occur.  With ``keep_cmd_log`` enabled, every
*command* is additionally appended to :attr:`command_log` as a
:class:`CommandRecord`, which is what the independent
:class:`~repro.audit.protocol.ProtocolAuditor` re-derives the full
Table 2 constraint set from (see ``docs/VALIDATION.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .commands import CommandType, Geometry
from .timing import TimingParams

__all__ = [
    "BankState",
    "BusTransaction",
    "CommandRecord",
    "DRAMChannel",
    "BusAuditor",
]

_ACTIVATE = CommandType.ACTIVATE
_PRECHARGE = CommandType.PRECHARGE
_READ = CommandType.READ
_WRITE = CommandType.WRITE


def _too_early(cmd: CommandType, cycle: int, legal: int) -> ValueError:
    return ValueError(
        f"{cmd.name} at cycle {cycle} violates timing "
        f"(earliest legal: {legal})"
    )


@dataclass(slots=True)
class BankState:
    """Per-bank row-buffer and earliest-next-command state."""

    open_row: int | None = None
    next_act: int = 0
    next_pre: int = 0
    next_rd: int = 0
    next_wr: int = 0


class BusTransaction(NamedTuple):
    """One completed data burst on the channel's data bus.

    Immutable and built once per column command, so a named tuple:
    as cheap to construct as a plain tuple.
    """

    start: int  # first cycle of data transfer
    end: int  # one past the last cycle of data transfer
    issue_cycle: int  # when the column command issued
    is_write: bool
    rank: int
    bank_group: int
    bank: int
    scheme: str  # coding scheme used for this burst
    request_id: int  # opaque tag from the controller (-1 if none)

    @property
    def cycles(self) -> int:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class CommandRecord:
    """One committed command, as the protocol audit layer sees it.

    This is the raw material for :class:`repro.audit.ProtocolAuditor`:
    nothing derived, just what issued when.  ``bus_cycles`` is zero for
    non-column commands; ``row`` is only meaningful for ACTIVATE.
    """

    cycle: int
    cmd: CommandType
    rank: int
    bank_group: int
    bank: int
    row: int | None = None
    bus_cycles: int = 0
    auto_precharge: bool = False


@dataclass(slots=True)
class _RankState:
    """Per-rank constraint registers."""

    next_rd: int = 0
    act_history: list = field(default_factory=list)  # for tFAW
    group_next_act: list = field(default_factory=list)
    group_next_rd: list = field(default_factory=list)
    group_next_wr: list = field(default_factory=list)
    # Row-buffer occupancy accounting (IDD3N vs IDD2N standby classes):
    # how many banks hold an open row, when the rank last transitioned
    # to "some bank open", and the accumulated open time.  Auto-
    # precharged banks close at the *internal* precharge cycle (tRTP /
    # write-recovery bound), not at the column command, so the close of
    # the last open bank is deferred: ``close_at`` is the cycle the
    # rank's current open interval actually ends (None while a bank is
    # open or the rank was never opened), and ``auto_horizon`` is the
    # latest internal-precharge completion seen so far.
    open_banks: int = 0
    open_since: int = 0
    open_cycles: int = 0
    close_at: int | None = None
    auto_horizon: int = 0
    # Fast-path indices for the controller's wake computation.
    # ``open_keys`` holds the (group, bank) coordinates of every bank
    # with an open row, so refresh-readiness scans touch only the open
    # banks instead of all ranks x groups x banks.  ``closed_next_act``
    # is a running upper bound over the ``next_act`` of every *closed*
    # bank: it is folded at each close event (PRECHARGE, internal
    # auto-precharge, REFRESH).  A stale contribution from a bank that
    # has since reopened is always dominated by that bank's own
    # precharge-path bound (its ACTIVATE cycle is >= the stale value,
    # and tRAS + tRP are positive), so the pair reproduces the full
    # per-bank scan exactly.
    open_keys: set = field(default_factory=set)
    closed_next_act: int = 0


class DRAMChannel:
    """One DDRx channel with its device timing state and data bus."""

    def __init__(
        self,
        timing: TimingParams,
        geometry: Geometry,
        keep_log: bool = True,
        keep_cmd_log: bool = False,
    ):
        self.timing = timing
        self.geometry = geometry
        self.keep_log = keep_log
        # Full per-command log for the protocol audit layer.  Off by
        # default: the bus-transaction log is what the figures need;
        # the command log exists to be replayed through an auditor.
        self.keep_cmd_log = keep_cmd_log
        # Telemetry probe (repro.telemetry.probes.ChannelProbe), attached
        # by the wiring layer only when a session is active; None keeps
        # every instrumentation site a single identity test.
        self.probe = None

        self.banks = [
            [
                [BankState() for _ in range(geometry.banks_per_group)]
                for _ in range(geometry.bank_groups)
            ]
            for _ in range(geometry.ranks)
        ]
        self.ranks = [
            _RankState(
                group_next_act=[0] * geometry.bank_groups,
                group_next_rd=[0] * geometry.bank_groups,
                group_next_wr=[0] * geometry.bank_groups,
            )
            for _ in range(geometry.ranks)
        ]

        # Folded rank/group column registers, indexed [rank][group];
        # refreshed by ``issue`` and combined with the data-bus bound
        # into ``bounds``.
        groups = geometry.bank_groups
        self.fold_rd = [[0] * groups for _ in range(geometry.ranks)]
        self.fold_wr = [[0] * groups for _ in range(geometry.ranks)]
        # Flat bound slots (see the module docstring): READ at
        # [rank * groups + group], WRITE one block of ranks * groups
        # later, then ACTIVATE, then the PRECHARGE floor, which stays 0
        # (bank registers start at 0 and only grow).
        pairs = geometry.ranks * groups
        self.write_slot0 = pairs
        self.act_slot0 = 2 * pairs
        self.pre_slot = 3 * pairs
        self.bounds = [0] * (3 * pairs + 1)

        # Data bus state.
        self.bus_free_at = 0
        self.last_bus_rank: int | None = None
        self.last_bus_was_write: bool | None = None
        self.busy_cycles = 0
        self._update_bus_bounds()

        # Event counters for the energy model.
        self.activate_count = 0
        self.read_count = 0
        self.write_count = 0
        self.refresh_count = 0
        self.auto_precharges = 0
        self.read_beats = 0
        self.write_beats = 0

        self.transactions: list[BusTransaction] = []
        self.command_log: list[CommandRecord] = []

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def bank(self, rank: int, group: int, bank: int) -> BankState:
        """Access one bank's state."""
        return self.banks[rank][group][bank]

    def _rank_open(self, r: _RankState, cycle: int, group: int, bank: int) -> None:
        """A bank in the rank gained an open row at ``cycle``."""
        r.open_keys.add((group, bank))
        if r.open_banks == 0:
            if r.close_at is not None and cycle <= r.close_at:
                # An internal precharge was still draining: the rank
                # never actually went all-closed, so the open interval
                # simply continues.
                r.close_at = None
            else:
                if r.close_at is not None:
                    r.open_cycles += r.close_at - r.open_since
                    r.close_at = None
                r.open_since = cycle
        r.open_banks += 1

    def _rank_close(
        self, r: _RankState, closes_at: int, group: int, bank: int
    ) -> None:
        """A bank in the rank loses its open row, effective ``closes_at``.

        For an explicit PRECHARGE ``closes_at`` is the command cycle;
        for auto-precharge it is the *internal* precharge cycle, which
        lies after the column command.  The open interval is only
        credited once a later event proves it really ended (a reopening
        ACTIVATE, or :meth:`rank_open_cycles` closing the books).
        """
        r.open_keys.discard((group, bank))
        r.auto_horizon = max(r.auto_horizon, closes_at)
        r.open_banks -= 1
        if r.open_banks == 0:
            r.close_at = r.auto_horizon

    def _bus_gap(self, rank: int, is_write: bool) -> int:
        """Required idle bubble before a new burst may start.

        Same rank, same direction: bursts may be seamless (device CCD
        spacing still applies).  A rank switch or a direction change
        costs a tRTRS bubble for bus turnaround / ODT settling.
        """
        if self.last_bus_rank is None:
            return 0
        if self.last_bus_rank != rank or self.last_bus_was_write != is_write:
            return self.timing.RTRS
        return 0

    def _data_latency(self, is_write: bool) -> int:
        return self.timing.WL if is_write else self.timing.CL

    def _update_bus_bounds(self) -> None:
        """Re-derive every column slot of ``bounds`` from the bus state.

        Data-bus availability converts to an issue-time bound: the
        burst may start once the bus is free plus any turnaround
        bubble, and it starts one data latency after the command.  A
        column slot is the larger of that bound and the folded
        rank/group register.
        """
        rd_free = self.bus_free_at - self._data_latency(False)
        wr_free = self.bus_free_at - self._data_latency(True)
        bounds = self.bounds
        groups = self.geometry.bank_groups
        wr0 = self.write_slot0
        for rank in range(self.geometry.ranks):
            bus_rd = rd_free + self._bus_gap(rank, False)
            bus_wr = wr_free + self._bus_gap(rank, True)
            fold_rd = self.fold_rd[rank]
            fold_wr = self.fold_wr[rank]
            slot = rank * groups
            for g in range(groups):
                fold = fold_rd[g]
                bounds[slot + g] = fold if fold > bus_rd else bus_rd
                fold = fold_wr[g]
                bounds[wr0 + slot + g] = fold if fold > bus_wr else bus_wr

    # ------------------------------------------------------------------
    # Earliest legal issue time
    # ------------------------------------------------------------------
    def earliest_issue(
        self,
        cmd: CommandType,
        rank: int,
        group: int,
        bank: int,
        now: int,
        bus_cycles: int = 4,
    ) -> int:
        """Earliest cycle >= ``now`` at which ``cmd`` could issue.

        Pure query: no state changes.  For column commands,
        ``bus_cycles`` is the data-bus occupancy (4 for BL8, 5 for BL10,
        8 for BL16).
        """
        b = self.banks[rank][group][bank]
        pair = rank * self.geometry.bank_groups + group

        if cmd is CommandType.ACTIVATE:
            return max(now, b.next_act, self.bounds[self.act_slot0 + pair])

        if cmd is CommandType.PRECHARGE:
            return max(now, b.next_pre)

        if cmd is CommandType.READ:
            return max(now, b.next_rd, self.bounds[pair])

        if cmd is CommandType.WRITE:
            return max(now, b.next_wr, self.bounds[self.write_slot0 + pair])

        if cmd is CommandType.REFRESH:
            t = self.timing
            r = self.ranks[rank]
            # All banks in the rank must be precharged and past tRP.  An
            # open row does not make the query invalid — this is a pure
            # query, and the controller's refresh path probes it
            # speculatively — so an open bank contributes the earliest
            # cycle its required precharge could complete instead.
            # Closed banks are covered wholesale by the rank's running
            # ``closed_next_act`` bound, so only open banks are visited.
            earliest = max(now, r.closed_next_act)
            banks_r = self.banks[rank]
            for grp_i, bank_i in r.open_keys:
                bb = banks_r[grp_i][bank_i]
                earliest = max(earliest, max(now, bb.next_pre) + t.RP)
            return earliest

        raise ValueError(f"unknown command {cmd}")

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def issue(
        self,
        cmd: CommandType,
        rank: int,
        group: int,
        bank: int,
        cycle: int,
        row: int | None = None,
        bus_cycles: int = 4,
        scheme: str = "dbi",
        request_id: int = -1,
        auto_precharge: bool = False,
    ) -> int:
        """Commit ``cmd`` at ``cycle``; return when its effect completes.

        For column commands the return value is the cycle the data burst
        finishes (one past the last data cycle); for others it is the
        cycle the affected resource becomes usable again.

        Raises ``ValueError`` if the command violates a timing
        constraint — the controller is expected to consult
        :meth:`earliest_issue` first, so a violation is a scheduler bug.
        Each command kind is checked against the same bound
        :meth:`earliest_issue` returns, then against the bank's
        row-buffer state, before anything is logged, so the command log
        only ever holds committed commands.
        """
        t = self.timing
        b = self.banks[rank][group][bank]
        r = self.ranks[rank]
        groups = self.geometry.bank_groups
        pair = rank * groups + group
        bounds = self.bounds

        if cmd is _READ or cmd is _WRITE:
            is_write = cmd is _WRITE
            if is_write:
                legal = b.next_wr
                bound = bounds[self.write_slot0 + pair]
            else:
                legal = b.next_rd
                bound = bounds[pair]
            if bound > legal:
                legal = bound
            if cycle < legal:
                raise _too_early(cmd, cycle, legal)
            if b.open_row is None:
                raise ValueError("column command on a closed bank")
            if self.keep_cmd_log:
                self._log(cycle, cmd, rank, group, bank, row, bus_cycles,
                          auto_precharge)

            latency = self._data_latency(is_write)
            data_start = cycle + latency
            data_end = data_start + bus_cycles
            if is_write:
                # Write recovery and write-to-read turnaround count from
                # the end of write data.
                b.next_pre = max(b.next_pre, data_end + t.WR)
                r.next_rd = max(r.next_rd, data_end + t.WTR_S)
                self.write_count += 1
                self.write_beats += bus_cycles * 2
            else:
                b.next_pre = max(b.next_pre, cycle + t.RTP)
                self.read_count += 1
                self.read_beats += bus_cycles * 2

            # Column-to-column spacing stretches with the burst.
            ccd_l = max(t.CCD_L, bus_cycles)
            ccd_s = max(t.CCD_S, bus_cycles)
            group_next_rd = r.group_next_rd
            group_next_wr = r.group_next_wr
            fold_rd = self.fold_rd[rank]
            fold_wr = self.fold_wr[rank]
            for g in range(groups):
                same = g == group
                ccd = ccd_l if same else ccd_s
                next_rd = max(group_next_rd[g], cycle + ccd)
                if is_write:
                    wtr = t.WTR_L if same else t.WTR_S
                    next_rd = max(next_rd, data_end + wtr)
                next_wr = max(group_next_wr[g], cycle + ccd)
                group_next_rd[g] = next_rd
                group_next_wr[g] = next_wr
                fold_rd[g] = max(next_rd, r.next_rd)
                fold_wr[g] = next_wr

            if auto_precharge:
                # RDA/WRA: the device precharges itself once the column
                # access completes — tRTP after a read, write recovery
                # after write data for a write; ``b.next_pre`` holds
                # exactly that bound after the bumps above.  The bank is
                # closed for scheduling purposes as of now, but the row
                # stays open (drawing IDD3N) until the internal
                # precharge, so occupancy closes at ``pre_at``.
                pre_at = b.next_pre
                b.open_row = None
                self._rank_close(r, pre_at, group, bank)
                b.next_act = max(b.next_act, pre_at + t.RP)
                r.closed_next_act = max(r.closed_next_act, b.next_act)
                self.auto_precharges += 1

            self.bus_free_at = data_end
            self.last_bus_rank = rank
            self.last_bus_was_write = is_write
            self._update_bus_bounds()
            self.busy_cycles += bus_cycles
            if self.keep_log:
                self.transactions.append(BusTransaction(
                    data_start, data_end, cycle, is_write, rank, group,
                    bank, scheme, request_id,
                ))
            if self.probe is not None:
                self.probe.bus_burst(
                    data_start, data_end, scheme, is_write, rank, group, bank
                )
            return data_end

        if cmd is _ACTIVATE:
            legal = b.next_act
            bound = bounds[self.act_slot0 + pair]
            if bound > legal:
                legal = bound
            if cycle < legal:
                raise _too_early(cmd, cycle, legal)
            if b.open_row is not None:
                raise ValueError("activate on a bank with an open row")
            if row is None:
                raise ValueError("activate needs a row")
            if self.keep_cmd_log:
                self._log(cycle, cmd, rank, group, bank, row, 0, False)

            b.open_row = row
            self._rank_open(r, cycle, group, bank)
            b.next_rd = max(b.next_rd, cycle + t.RCD)
            b.next_wr = max(b.next_wr, cycle + t.RCD)
            b.next_pre = max(b.next_pre, cycle + t.RAS)
            b.next_act = max(b.next_act, cycle + t.RC)
            history = r.act_history
            history.append(cycle)
            if len(history) > 8:
                del history[:-8]
            # tFAW: a fifth ACTIVATE waits for the fourth-last one.
            rank_bound = history[-4] + t.FAW if len(history) >= 4 else 0
            group_next_act = r.group_next_act
            slot = self.act_slot0 + rank * groups
            for g in range(groups):
                bound = t.RRD_L if g == group else t.RRD_S
                group_next_act[g] = max(group_next_act[g], cycle + bound)
                bounds[slot + g] = max(group_next_act[g], rank_bound)
            self.activate_count += 1
            if self.probe is not None:
                self.probe.activate(cycle, rank)
            return cycle + t.RCD

        if cmd is _PRECHARGE:
            if cycle < b.next_pre:
                raise _too_early(cmd, cycle, b.next_pre)
            if b.open_row is None:
                raise ValueError("precharge on an already-closed bank")
            if self.keep_cmd_log:
                self._log(cycle, cmd, rank, group, bank, row, 0, False)

            b.open_row = None
            self._rank_close(r, cycle, group, bank)
            b.next_act = max(b.next_act, cycle + t.RP)
            r.closed_next_act = max(r.closed_next_act, b.next_act)
            if self.probe is not None:
                self.probe.precharge(cycle, rank)
            return cycle + t.RP

        # REFRESH (or an unknown command, which earliest_issue rejects).
        legal = self.earliest_issue(cmd, rank, group, bank, cycle)
        if cycle < legal:
            raise _too_early(cmd, cycle, legal)
        if not self.all_banks_closed(rank):
            raise ValueError("refresh requires all banks closed")
        if self.keep_cmd_log:
            self._log(cycle, cmd, rank, group, bank, row, 0, False)

        done = cycle + t.RFC
        for grp in self.banks[rank]:
            for bb in grp:
                bb.next_act = max(bb.next_act, done)
        r.closed_next_act = max(r.closed_next_act, done)
        self.refresh_count += 1
        if self.probe is not None:
            self.probe.refresh(cycle, rank)
        return done

    def _log(self, cycle, cmd, rank, group, bank, row, bus_cycles,
             auto_precharge) -> None:
        """Append one committed command to :attr:`command_log`."""
        self.command_log.append(
            CommandRecord(
                cycle=cycle,
                cmd=cmd,
                rank=rank,
                bank_group=group,
                bank=bank,
                row=row,
                bus_cycles=bus_cycles,
                auto_precharge=auto_precharge,
            )
        )

    # ------------------------------------------------------------------
    # Introspection used by the decision logic and the analysis layer
    # ------------------------------------------------------------------
    def open_row(self, rank: int, group: int, bank: int) -> int | None:
        """Row currently latched in the bank's row buffer."""
        return self.banks[rank][group][bank].open_row

    def all_banks_closed(self, rank: int) -> bool:
        """True when the rank can accept a refresh (O(1))."""
        return not self.ranks[rank].open_keys

    def open_bank_keys(self, rank: int) -> list:
        """Sorted ``(group, bank)`` coordinates of banks with open rows.

        Sorting reproduces the lexicographic visit order of the old
        all-banks nested loop, so callers that break ties by "first
        seen" stay bit-identical to the full scan.
        """
        return sorted(self.ranks[rank].open_keys)

    def earliest_any_issue(
        self, cmd: CommandType, rank: int, now: int
    ) -> tuple | None:
        """Best ``(earliest, group, bank)`` for ``cmd`` over the rank.

        The bank-ready primitive behind the controller's refresh paths:
        for PRECHARGE it scans only the open banks (the only legal
        targets) and returns the first-seen minimum in ``(group, bank)``
        order — exactly what the old exhaustive scan picked.  Returns
        ``None`` when no bank can accept the command.  Pure query.
        """
        if cmd is not CommandType.PRECHARGE:
            raise ValueError(f"earliest_any_issue only supports PRECHARGE, got {cmd}")
        best = None
        banks_r = self.banks[rank]
        for grp_i, bank_i in self.open_bank_keys(rank):
            earliest = max(now, banks_r[grp_i][bank_i].next_pre)
            if best is None or earliest < best[0]:
                best = (earliest, grp_i, bank_i)
        return best

    def rank_open_cycles(self, rank: int, now: int) -> int:
        """Cycles rank ``rank`` spent with at least one open row.

        The IDD3N-vs-IDD2N standby split of the Micron power
        methodology; ``now`` closes the still-open interval, if any.
        """
        r = self.ranks[rank]
        total = r.open_cycles
        if r.open_banks > 0:
            total += max(0, now - r.open_since)
        elif r.close_at is not None:
            # All banks auto-precharged; the open interval runs until
            # the last internal precharge, clipped to ``now`` if that
            # precharge is still in the future.
            total += max(0, min(now, r.close_at) - r.open_since)
        return total


class BusAuditor:
    """Independent checker for the data-bus log.

    Re-derives the bus rules from scratch (overlap-free, tRTRS bubbles
    on rank switches and direction changes) so a bug in
    :class:`DRAMChannel` cannot hide itself.
    """

    def __init__(self, timing: TimingParams):
        self.timing = timing

    def check(self, transactions: list[BusTransaction]) -> list[str]:
        """Return a list of violation descriptions (empty == clean)."""
        problems = []
        # ``last`` is the burst with the running-max ``end`` seen so
        # far, not merely the previous burst in start order: a long
        # burst can overlap (or demand a turnaround bubble from) a
        # transaction several entries later, and an overlapping pair
        # still owes a bubble check against whatever came before it.
        last: BusTransaction | None = None
        for cur in sorted(transactions, key=lambda tr: (tr.start, tr.end)):
            if last is not None:
                if cur.start < last.end:
                    problems.append(
                        f"overlap: [{last.start},{last.end}) then "
                        f"[{cur.start},{cur.end})"
                    )
                switch = (
                    last.rank != cur.rank or last.is_write != cur.is_write
                )
                if switch and cur.start - last.end < self.timing.RTRS:
                    problems.append(
                        f"missing turnaround bubble between {last.end} "
                        f"and {cur.start} (rank/direction switch)"
                    )
            if last is None or cur.end > last.end:
                last = cur
        return problems
