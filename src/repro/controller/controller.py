"""The channel controller: queues, FR-FCFS, write drain, refresh, MiL hook.

This is the event-driven engine that owns one :class:`DRAMChannel`.  It
advances in DRAM cycles but never busy-waits: :meth:`next_event` reports
the earliest future cycle at which anything could change, and the system
simulator jumps straight there.

Commands are scheduled First-Ready, First-Come-First-Served (Rixner et
al., ISCA 2000; Table 2): among commands that can issue *now*, column
commands to already-open rows (row hits) win, oldest first; otherwise
the controller works on the oldest request's row, via ACTIVATE when the
bank is closed or PRECHARGE on a row conflict — but a conflicting row
is never closed while other queued requests still hit it.

The MiL framework plugs in through a *coding policy* object with two
members (duck-typed to avoid a dependency cycle with ``repro.core``):

``extra_cl``
    Codec cycles folded into tCL/tWL for the whole run (Section 7.1).
``choose(controller, request, now)``
    Called when a column command is being issued; returns the coding
    scheme name, which fixes the burst length for that transaction.

The baseline :class:`AlwaysScheme` policy always answers ``"dbi"``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..coding.registry import scheme_info
from ..dram.channel import DRAMChannel
from ..dram.commands import CommandType, Geometry
from ..dram.refresh import RefreshScheduler
from ..dram.timing import TimingParams
from .queues import TransactionQueue
from .request import MemoryRequest
from .writedrain import WriteDrainPolicy

__all__ = ["AlwaysScheme", "CandidateCommand", "ChannelController"]

# Larger than any simulated cycle: the running minimum's start value.
_NEVER = 1 << 62

_ACTIVATE = CommandType.ACTIVATE
_PRECHARGE = CommandType.PRECHARGE
_READ = CommandType.READ
_WRITE = CommandType.WRITE
_REFRESH = CommandType.REFRESH

# FR-FCFS keys, one int per scheduling record: a column command's
# (arrival, serial) sorts before every ACTIVATE's queue_seq, which sorts
# before every PRECHARGE's.
_COL_SHIFT = 64
_ACT_KEY = 1 << 128
_PRE_KEY = 2 << 128
_NEVER_KEY = 3 << 128


@dataclass(slots=True)
class CandidateCommand:
    """One legal (or soon-legal) command the scheduler is considering."""

    cmd: CommandType
    rank: int
    group: int
    bank: int
    row: int
    earliest: int
    request: MemoryRequest | None  # None for PRE on behalf of a conflict


class AlwaysScheme:
    """Fixed-scheme coding policy (baseline DBI, or Figure 20 sweeps)."""

    probe = None  # telemetry slot; set by ChannelController.attach_probe

    def __init__(self, scheme: str = "dbi", extra_cl: int | None = None):
        info = scheme_info(scheme)
        self.scheme = scheme
        self.extra_cl = info.extra_latency if extra_cl is None else extra_cl

    def choose(self, controller: "ChannelController", request, now: int) -> str:
        if self.probe is not None:
            self.probe.decision(now, "fixed", self.scheme)
        return self.scheme


class ChannelController:
    """Event-skipping memory controller for one channel."""

    def __init__(
        self,
        timing: TimingParams,
        geometry: Geometry,
        policy: AlwaysScheme | None = None,
        read_queue_size: int = 64,
        write_queue_size: int = 64,
        drain_high: int = 60,
        drain_low: int = 50,
        keep_log: bool = True,
        keep_cmd_log: bool = False,
        refresh_enabled: bool = True,
        page_policy: str = "open",
    ):
        if page_policy not in ("open", "closed"):
            raise ValueError("page_policy must be 'open' or 'closed'")
        self.page_policy = page_policy
        self.policy = policy if policy is not None else AlwaysScheme("dbi")
        self.timing = timing.with_extra_cl(self.policy.extra_cl)
        self.geometry = geometry
        self.channel = DRAMChannel(
            self.timing, geometry, keep_log=keep_log,
            keep_cmd_log=keep_cmd_log,
        )
        self.refresh = (
            RefreshScheduler(self.timing, geometry.ranks)
            if refresh_enabled
            else None
        )
        self.read_queue = TransactionQueue(read_queue_size)
        self.write_queue = TransactionQueue(write_queue_size)
        # The queues' live per-bank views (read-only here).
        self._buckets_rd = self.read_queue.bank_buckets()
        self._buckets_wr = self.write_queue.bank_buckets()
        self.drain = WriteDrainPolicy(drain_high, drain_low, write_queue_size)
        self.draining_now = False
        # False once a queue length changed since the hysteresis was
        # last sampled (see _sync_drain).
        self._drain_synced = False

        # Telemetry probe shared with the channel and the policy; None
        # (the default) leaves the fast path uninstrumented.
        self._probe = None

        self.completed: list[MemoryRequest] = []
        self.next_cmd_cycle = 0
        self.scheme_counts: dict[str, int] = {}
        self.forwarded_reads = 0
        self.coalesced_writes = 0
        # True when any transaction is queued (the Figure 5 predicate).
        # Kept current by enqueue and step, the only queue mutators, so
        # the per-event paths read an attribute instead of two lengths.
        self.has_pending = False

        # Scheduling records (see _schedule_query).  Each bank with
        # queued requests contributes exactly one candidate (oldest row
        # hit, else ACT for the bucket head, else PRE), kept as a
        # record per queue direction: bank key (rank, group, bank) ->
        # (bank register, bound slot, FR-FCFS key, command fields).
        # A record changes only when a request is enqueued into its
        # bank or a command issues to it (a REFRESH: to any bank of
        # its rank); those events mark the bank dirty in the direction
        # sets, and a pass re-derives only the dirty banks.
        self._state_version = 0
        self._records_rd: dict = {}
        self._records_wr: dict = {}
        self._dirty_rd: set = set()
        self._dirty_wr: set = set()
        # The column-command records of each direction (the banks with
        # row hits): all that MiL's rdyX count reads.
        self._hit_records_rd: dict = {}
        self._hit_records_wr: dict = {}
        # Records reused and records re-derived, over all passes.
        self.cand_bank_hits = 0
        self.cand_bank_misses = 0
        # Fused schedule query memo: (pick, wake) for one (state
        # version, cycle) pair.  When the pass found no pick,
        # ``_sched_at_min`` holds the command fields of the best
        # candidate at the wake: the argmin memo (see _schedule_query).
        self._sched_version = -1
        self._sched_now = -1
        self._sched_pick = None
        self._sched_wake: int | None = None
        self._sched_at_min = None
        # Wake cache: nothing can happen before this absolute cycle
        # unless the state version changes (new request, command issued).
        self._wake_version = -1
        self._wake_time: int | None = None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def attach_probe(self, probe) -> None:
        """Wire one :class:`~repro.telemetry.probes.ChannelProbe` in.

        Called once by the simulator when a telemetry session is active;
        the same probe serves the controller's own sites, the DRAM
        channel's command/bus sites, and the coding policy's decision
        sites (policies without a ``probe`` slot simply never call it).
        """
        self._probe = probe
        self.channel.probe = probe
        if hasattr(self.policy, "probe"):
            self.policy.probe = probe

    # ------------------------------------------------------------------
    # Protocol audit
    # ------------------------------------------------------------------
    def audit(self):
        """Replay this controller's logs through the independent auditor.

        Requires ``keep_cmd_log=True``; returns the list of
        :class:`~repro.audit.protocol.Violation` (empty == clean).  The
        auditor gets the controller's *effective* timing (codec latency
        folded in), matching what the channel enforced.
        """
        from ..audit.protocol import ProtocolAuditor

        return ProtocolAuditor(self.timing, self.geometry).audit(
            self.channel.command_log, self.channel.transactions
        )

    # ------------------------------------------------------------------
    # Front end
    # ------------------------------------------------------------------
    def can_accept(self, is_write: bool) -> bool:
        """Back-pressure check used by the LLC/core model."""
        queue = self.write_queue if is_write else self.read_queue
        return not queue.full

    def enqueue(self, request: MemoryRequest, now: int) -> None:
        """Accept a request at cycle ``now``.

        Reads that hit the write queue are forwarded and complete
        immediately; writes coalesce with queued writes to the same
        line.  Callers must respect :meth:`can_accept`.
        """
        if request.mapped is None:
            raise ValueError("request must be address-mapped before enqueue")
        request.arrival = now
        self._state_version += 1
        if self._probe is not None:
            self._probe.enqueue(len(self.read_queue), len(self.write_queue))
        m = request.mapped
        if request.is_write:
            if self.write_queue.push(request, coalesce=True):
                self._drain_synced = False
            else:
                self.coalesced_writes += 1
            self._dirty_wr.add((m.rank, m.bank_group, m.bank))
            self.has_pending = True
            return
        hit = self.write_queue.find(request.address)
        if hit is not None:
            request.issue_cycle = now
            request.finish_cycle = now
            request.scheme = "forwarded"
            self.forwarded_reads += 1
            self.completed.append(request)
            return
        self.read_queue.push(request)
        self._drain_synced = False
        self._dirty_rd.add((m.rank, m.bank_group, m.bank))
        self.has_pending = True

    def drain_completions(self) -> list[MemoryRequest]:
        """Hand completed requests to the caller and clear the list."""
        done, self.completed = self.completed, []
        return done

    # ------------------------------------------------------------------
    # MiL decision-logic support (the Figure 11 rdyX computation)
    # ------------------------------------------------------------------
    def column_ready_within(
        self,
        now: int,
        window: int,
        exclude: MemoryRequest | None = None,
        include_prefetches: bool = False,
        reads_only: bool = False,
    ) -> int:
        """Count queued column commands ready within ``window`` cycles.

        This is the software analogue of the rdyX comparator tree:
        a queued request contributes when its target row is open and all
        its timing counters will reach zero within ``window`` cycles.

        Prefetches are excluded by default: the controller knows which
        queue entries are prefetches, and postponing one by a few cycles
        cannot stall any core, so counting them would only veto long
        coded bursts for no benefit (a refinement over the paper's
        prefetch-blind comparator tree; see DESIGN.md).
        """
        count = 0
        horizon = now + window
        bounds = self.channel.bounds
        scans = (False, True) if self.draining_now and not reads_only else (
            False,
        )
        for is_write in scans:
            self._fresh_records(is_write)
            hit_records = (
                self._hit_records_wr if is_write else self._hit_records_rd
            )
            # All hits in one bank share the same command timing: the
            # bank's record is a column command exactly when the bank
            # is open with hits, and they are ready when the record is.
            for earliest, slot, _, fields in hit_records.values():
                if earliest <= horizon and bounds[slot] <= horizon:
                    count += fields[6] if include_prefetches else fields[7]
            if exclude is None or exclude.is_write != is_write:
                continue
            m = exclude.mapped
            key = (m.rank, m.bank_group, m.bank)
            record = hit_records.get(key)
            if (
                record is not None
                and record[3][4] == m.row
                and (include_prefetches or not exclude.is_prefetch)
                and record[0] <= horizon
                and bounds[record[1]] <= horizon
            ):
                # Counted above, if it is queued: it is when it is the
                # bank's oldest hit (the pick being issued), else look.
                buckets = self._buckets_wr if is_write else self._buckets_rd
                if record[3][5] is exclude or exclude in buckets[key]:
                    count -= 1
        return count

    def _row_has_more_hits(self, request: MemoryRequest) -> bool:
        """Does any other queued request still want this open row?

        Under the closed-page policy a column command auto-precharges
        unless a queued sibling would hit the same row.
        """
        m = request.mapped
        for queue in (self.read_queue, self.write_queue):
            sibling = None
            for req in queue:
                if req is request:
                    continue
                rm = req.mapped
                if (
                    rm.rank == m.rank
                    and rm.bank_group == m.bank_group
                    and rm.bank == m.bank
                    and rm.row == m.row
                ):
                    sibling = req
                    break
            if sibling is not None:
                return True
        return False

    # ------------------------------------------------------------------
    # Scheduling engine
    # ------------------------------------------------------------------
    def _urgent_refresh_action(self, now: int):
        """(cmd, rank, group, bank, earliest) for overdue refresh.

        Callers check ``refresh.overdue`` first; some rank is then
        urgent, so an action is always found.
        """
        for rank in range(self.geometry.ranks):
            if not self.refresh.urgent(rank):
                continue
            # Close any open bank, oldest constraint first.  The channel
            # scans only its open-bank set, in the same (group, bank)
            # order the old exhaustive loop used.
            best = self.channel.earliest_any_issue(
                CommandType.PRECHARGE, rank, now
            )
            if best is not None:
                earliest, g, b = best
                return (CommandType.PRECHARGE, rank, g, b, earliest)
            earliest = self.channel.earliest_issue(
                CommandType.REFRESH, rank, 0, 0, now
            )
            return (CommandType.REFRESH, rank, 0, 0, earliest)

    def _idle_refresh_action(self, now: int):
        """Opportunistic refresh when no transactions are pending."""
        if self.refresh is None or self.has_pending:
            return None
        if not self.refresh.any_debt():
            return None
        for rank in self.refresh.pending_ranks():
            if not self.channel.all_banks_closed(rank):
                best = self.channel.earliest_any_issue(
                    CommandType.PRECHARGE, rank, now
                )
                if best is None:
                    return None
                earliest, g, b = best
                return (CommandType.PRECHARGE, rank, g, b, earliest)
            earliest = self.channel.earliest_issue(
                CommandType.REFRESH, rank, 0, 0, now
            )
            return (CommandType.REFRESH, rank, 0, 0, earliest)
        return None

    def _sync_drain(self, now: int) -> None:
        """Advance the write-drain hysteresis from current queue depths.

        Idempotent for fixed queue lengths, so a pass calls it only
        when a length changed since the last call (``_drain_synced``).
        """
        self._drain_synced = True
        draining = self.drain.update(
            len(self.write_queue), len(self.read_queue)
        )
        if draining != self.draining_now:
            self.draining_now = draining
            self._state_version += 1
            if self._probe is not None:
                self._probe.drain_transition(now, draining)

    def _derive_bank_candidate(self, key: tuple, bucket: list,
                               is_write: bool) -> tuple:
        """The record of one bank with queued requests, in one direction.

        ``(bank register, bound slot, FR-FCFS key, command fields)``:
        the candidate's earliest cycle is max(register,
        ``channel.bounds[slot]``), and among ready candidates the
        smallest key wins.  The candidate is a column command for the
        oldest row hit (oldest by (arrival, serial)), else an ACTIVATE
        for the bucket head when the bank is closed, else a PRECHARGE
        (the open row is wanted by nobody in the bucket).  The command
        fields are (cmd, rank, group, bank, row, request, row hits,
        demand row hits); the hit counts, which ``column_ready_within``
        reads, are zero unless the candidate is a column command.
        """
        rank, group, bank = key
        ch = self.channel
        bstate = ch.banks[rank][group][bank]
        open_row = bstate.open_row
        pair = rank * self.geometry.bank_groups + group
        if open_row is None:
            head = bucket[0]
            return (
                bstate.next_act, ch.act_slot0 + pair,
                _ACT_KEY | head.queue_seq,
                (_ACTIVATE, rank, group, bank, head.mapped.row, head, 0, 0),
            )
        best = None
        best_key = _NEVER_KEY
        hits = demand_hits = 0
        for req in bucket:
            if req.mapped.row == open_row:
                hits += 1
                if not req.is_prefetch:
                    demand_hits += 1
                col_key = (req.arrival << _COL_SHIFT) | req.serial
                if col_key < best_key:
                    best = req
                    best_key = col_key
        if best is None:
            return (
                bstate.next_pre, ch.pre_slot,
                _PRE_KEY | bucket[0].queue_seq,
                (_PRECHARGE, rank, group, bank, open_row, None, 0, 0),
            )
        if is_write:
            return (
                bstate.next_wr, ch.write_slot0 + pair, best_key,
                (_WRITE, rank, group, bank, open_row, best, hits,
                 demand_hits),
            )
        return (
            bstate.next_rd, pair, best_key,
            (_READ, rank, group, bank, open_row, best, hits, demand_hits),
        )

    def _fresh_records(self, is_write: bool) -> dict:
        """One direction's records, with its dirty banks re-derived."""
        if is_write:
            records, dirty = self._records_wr, self._dirty_wr
        else:
            records, dirty = self._records_rd, self._dirty_rd
        if dirty:
            if is_write:
                buckets, hit_records = self._buckets_wr, self._hit_records_wr
            else:
                buckets, hit_records = self._buckets_rd, self._hit_records_rd
            derive = self._derive_bank_candidate
            derived = 0
            for key in dirty:
                bucket = buckets.get(key)
                if bucket is None:
                    records.pop(key, None)
                    hit_records.pop(key, None)
                    continue
                record = records[key] = derive(key, bucket, is_write)
                if record[3][6]:
                    hit_records[key] = record
                else:
                    hit_records.pop(key, None)
                derived += 1
            dirty.clear()
            self.cand_bank_misses += derived
        return records

    def _schedule_query(self, now: int):
        """Fused ``(pick, wake)`` for cycle ``now``.

        ``pick`` is the FR-FCFS winner issueable at ``now`` (or None):
        the oldest ready column command by (arrival, serial), else the
        first-queued ready ACTIVATE, else the first-queued ready
        PRECHARGE.  ``wake`` is the earliest cycle any candidate
        becomes issueable, floored at ``now`` (None when the active
        queue is empty).

        A pass first re-derives the records of the banks dirtied in
        the active direction since it was last scheduled, then folds
        every record in one loop: earliest = max(register,
        ``channel.bounds[slot]``) — the same answer as
        ``DRAMChannel.earliest_issue`` — tracking the best ready key,
        and, among candidates not yet ready, the minimum earliest and
        the best key at it.

        Memoised per state version: at the pass's own cycle the memo
        answers outright.  When the pass found no pick, every
        candidate's earliest lies after the pass cycle, so at any
        earlier cycle of the same version there is still no pick, and
        at the wake exactly the candidates at the minimum are ready:
        the best of them is the pick (the argmin memo).
        """
        if self._sched_version == self._state_version:
            if self._sched_now == now:
                return self._sched_pick, self._sched_wake
            wake = self._sched_wake
            if self._sched_pick is None:
                if wake is None or now < wake:
                    return None, wake
                if now == wake:
                    f = self._sched_at_min
                    pick = CandidateCommand(
                        f[0], f[1], f[2], f[3], f[4], now, f[5]
                    )
                    self._sched_now = now
                    self._sched_pick = pick
                    return pick, wake
        if not self._drain_synced:
            self._sync_drain(now)
        misses = self.cand_bank_misses
        records = self._fresh_records(self.draining_now)
        pick = None
        wake: int | None = None
        if records:
            self.cand_bank_hits += len(records) - (
                self.cand_bank_misses - misses
            )
            bounds = self.channel.bounds
            ready = at_min = None
            ready_key = min_key = _NEVER_KEY
            wake = _NEVER
            for record in records.values():
                earliest = record[0]
                if earliest > wake:
                    continue  # neither ready nor a new minimum
                bound = bounds[record[1]]
                if bound > earliest:
                    earliest = bound
                if earliest <= now:
                    key = record[2]
                    if key < ready_key:
                        ready_key = key
                        ready = record[3]
                elif earliest <= wake:
                    key = record[2]
                    if earliest < wake or key < min_key:
                        wake = earliest
                        min_key = key
                        at_min = record[3]
            if ready is not None:
                pick = CandidateCommand(
                    ready[0], ready[1], ready[2], ready[3], ready[4], now,
                    ready[5],
                )
                wake = now
            else:
                self._sched_at_min = at_min
        self._sched_version = self._state_version
        self._sched_now = now
        self._sched_pick = pick
        self._sched_wake = wake
        return pick, wake

    def sync(self, now: int) -> None:
        """Fold elapsed wall time into mutable bookkeeping.

        The one sanctioned mutation point for refresh debt:
        :meth:`step` calls this before scheduling, so :meth:`next_event`
        can stay a pure query (see the purity contract in DESIGN.md).
        """
        refresh = self.refresh
        if refresh is not None and now >= refresh.next_accrual:
            refresh.accrue(now)

    def _issue_refresh_action(self, cmd, rank, group, bank, now) -> None:
        """Issue a refresh-path PRECHARGE or REFRESH at ``now``."""
        self.channel.issue(cmd, rank, group, bank, now)
        if cmd is _REFRESH:
            self.refresh.paid(rank)
            geo = self.geometry
            keys = [
                (rank, g, b)
                for g in range(geo.bank_groups)
                for b in range(geo.banks_per_group)
            ]
            self._dirty_rd.update(keys)
            self._dirty_wr.update(keys)
        else:
            key = (rank, group, bank)
            self._dirty_rd.add(key)
            self._dirty_wr.add(key)
        self._state_version += 1
        self.next_cmd_cycle = now + 1

    def step(self, now: int) -> bool:
        """Issue at most one command at cycle ``now``; True if issued."""
        if now < self.next_cmd_cycle:
            return False
        if (
            self._wake_version == self._state_version
            and self._wake_time is not None
            and now < self._wake_time
        ):
            return False  # provably nothing to do yet
        self.sync(now)

        if self.refresh is not None and self.refresh.overdue:
            cmd, rank, group, bank, earliest = self._urgent_refresh_action(now)
            if earliest > now:
                return False
            self._issue_refresh_action(cmd, rank, group, bank, now)
            return True

        pick, _ = self._schedule_query(now)
        if pick is None:
            if self.has_pending:
                return False  # no idle refresh while requests wait
            action = self._idle_refresh_action(now)
            if action is not None:
                cmd, rank, group, bank, earliest = action
                if earliest <= now:
                    self._issue_refresh_action(cmd, rank, group, bank, now)
                    return True
            return False

        cmd = pick.cmd
        rank = pick.rank
        group = pick.group
        bank = pick.bank
        if cmd is _READ or cmd is _WRITE:
            req = pick.request
            scheme = self.policy.choose(self, req, now)
            fmt = scheme_info(scheme)
            auto_pre = (
                self.page_policy == "closed"
                and not self._row_has_more_hits(req)
            )
            data_end = self.channel.issue(
                cmd, rank, group, bank, now,
                bus_cycles=fmt.bus_cycles, scheme=scheme,
                request_id=req.line_id, auto_precharge=auto_pre,
            )
            req.issue_cycle = now
            req.finish_cycle = data_end
            req.scheme = scheme
            queue = self.write_queue if req.is_write else self.read_queue
            queue.remove(req)
            self._drain_synced = False
            self.has_pending = (
                len(self.read_queue) > 0 or len(self.write_queue) > 0
            )
            self.completed.append(req)
            self.scheme_counts[scheme] = self.scheme_counts.get(scheme, 0) + 1
        else:
            self.channel.issue(cmd, rank, group, bank, now, row=pick.row)
        key = (rank, group, bank)
        self._dirty_rd.add(key)
        self._dirty_wr.add(key)
        self._state_version += 1
        self.next_cmd_cycle = now + 1
        return True

    def next_event(self, now: int) -> int | None:
        """Earliest cycle > ``now`` worth calling :meth:`step` at.

        ``None`` means nothing will ever happen without new requests
        (queues empty and refresh disabled).

        Pure query: repeated calls at the same ``now`` return the same
        value and mutate nothing (refresh debt accrual happens in
        :meth:`step` via :meth:`sync`).  If refresh intervals have
        elapsed since the last ``step``, ``refresh.next_event()`` is
        simply in the past and the ``now + 1`` floor wakes the caller
        immediately, so no refresh is ever missed.
        """
        floor = max(now + 1, self.next_cmd_cycle)
        if (
            self._wake_version == self._state_version
            and self._wake_time is not None
            and now < self._wake_time
        ):
            return max(floor, self._wake_time)

        wake = None  # the minimum over everything that can wake us
        refresh = self.refresh
        if refresh is not None:
            wake = refresh.next_event()
            if refresh.overdue:
                action = self._urgent_refresh_action(now)
            elif not self.has_pending:
                action = self._idle_refresh_action(now)
            else:
                action = None
            if action is not None and action[4] < wake:
                wake = action[4]
        if self.has_pending:
            _, sched_wake = self._schedule_query(now)
            if sched_wake is not None and (wake is None or sched_wake < wake):
                wake = sched_wake
        self._wake_version = self._state_version
        self._wake_time = wake
        if wake is None:
            return None
        return max(floor, wake)
