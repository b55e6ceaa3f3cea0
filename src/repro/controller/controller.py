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

    @property
    def max_bus_cycles(self) -> int:
        return scheme_info(self.scheme).bus_cycles


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
        self.drain = WriteDrainPolicy(drain_high, drain_low, write_queue_size)
        self.draining_now = False

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

        # Scheduling memos.  Candidates are derived *incrementally*:
        # each bank contributes exactly one candidate (oldest row hit,
        # else ACT for the bucket head, else PRE).  For an open bank
        # the row-hit search is memoised against the queue's bucket
        # version and the bank's open row, so an enqueue or issue only
        # re-derives the banks it touched.
        self._state_version = 0
        # Per-bank row-hit memos, one per queue direction, keyed by the
        # bucket key (rank, group, bank) ->
        # (bucket_version, open_row, oldest hit or None for PRECHARGE).
        self._bank_memo_rd: dict = {}
        self._bank_memo_wr: dict = {}
        self.cand_bank_hits = 0
        self.cand_bank_misses = 0
        # Fused schedule query memo: (pick, wake) for one (state
        # version, cycle) pair — the hot path computes both in a single
        # pass over the bank buckets without materialising a candidate
        # list (see _schedule_query).
        self._sched_version = -1
        self._sched_now = -1
        self._sched_pick = None
        self._sched_wake: int | None = None
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
        if request.is_write:
            took_slot = self.write_queue.push(request, coalesce=True)
            if not took_slot:
                self.coalesced_writes += 1
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
        ch = self.channel
        banks = ch.banks
        scans = [(self.read_queue, False, ch.fold_rd, ch.bus_rd)]
        if self.draining_now and not reads_only:
            scans.append((self.write_queue, True, ch.fold_wr, ch.bus_wr))
        for queue, is_write, fold, bus in scans:
            for (rank, group, bank), bucket in queue.bank_buckets().items():
                bstate = banks[rank][group][bank]
                open_row = bstate.open_row
                if open_row is None:
                    continue
                # All hits in one bank share the same command timing:
                # ready when the bank register, the folded register and
                # the bus bound all fall within the window.
                earliest = bstate.next_wr if is_write else bstate.next_rd
                if (
                    earliest > horizon
                    or fold[rank][group] > horizon
                    or bus[rank] > horizon
                ):
                    continue
                for req in bucket:
                    if req.mapped.row != open_row or req is exclude:
                        continue
                    if req.is_prefetch and not include_prefetches:
                        continue
                    count += 1
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

        Idempotent for fixed queue lengths, so it only needs to run
        when the state version moved (every push/pop changes a length
        and bumps the version).
        """
        draining = self.drain.update(
            len(self.write_queue), len(self.read_queue)
        )
        if draining != self.draining_now:
            self.draining_now = draining
            self._state_version += 1
            if self._probe is not None:
                self._probe.drain_transition(now, draining)

    def _derive_bank_candidate(self, bucket: list, open_row: int):
        """Oldest queued request hitting ``open_row``, or None.

        Oldest by the FR-FCFS (arrival, serial) key.  None means the
        open row is wanted by nobody in the bucket: the bank's
        candidate is a PRECHARGE.
        """
        best = None
        for req in bucket:
            if req.mapped.row == open_row and (
                best is None
                or (req.arrival, req.serial) < (best.arrival, best.serial)
            ):
                best = req
        return best

    def _schedule_query(self, now: int):
        """Fused ``(pick, wake)`` for cycle ``now`` in one bucket pass.

        Each bank with queued requests contributes one candidate: a
        column command for its oldest row hit, else an ACTIVATE for
        its bucket head when the bank is closed, else a PRECHARGE.  The
        pass tracks the oldest ready column (FR-FCFS (arrival, serial)
        order), the first-queued ready ACTIVATE, the first-queued ready
        PRECHARGE, and the minimum earliest over all per-bank
        candidates, without building a candidate list.  ``pick`` is the
        winner issueable at ``now`` (or None); ``wake`` is the earliest
        cycle any candidate becomes issueable (None when the active
        queue is empty).  Each candidate's earliest cycle
        is max(bank register, the channel's folded rank/group register,
        the channel's bus bound) — the same answer as
        ``DRAMChannel.earliest_issue``, read off the registers the
        channel keeps.  Memoised per (state version, cycle) so ``step``
        and ``next_event`` at the same cycle share one pass.
        """
        if (
            self._sched_version == self._state_version
            and self._sched_now == now
        ):
            return self._sched_pick, self._sched_wake
        self._sync_drain(now)
        is_write_q = self.draining_now
        queue = self.write_queue if is_write_q else self.read_queue
        buckets = queue.bank_buckets()
        pick = None
        wake: int | None = None
        if buckets:
            ch = self.channel
            banks = ch.banks
            fold_act = ch.fold_act
            if is_write_q:
                col_cmd, col_fold, col_bus = (
                    CommandType.WRITE, ch.fold_wr, ch.bus_wr
                )
                memo = self._bank_memo_wr
            else:
                col_cmd, col_fold, col_bus = (
                    CommandType.READ, ch.fold_rd, ch.bus_rd
                )
                memo = self._bank_memo_rd
            versions = queue.bank_versions()
            derive = self._derive_bank_candidate
            best_col = best_col_key = None
            best_act = best_act_seq = None
            best_pre = best_pre_seq = None
            hits = misses = 0
            wake = _NEVER
            # Unrolled max() below: this loop runs per bank per pass.
            for key, bucket in buckets.items():
                rank, group, bank = key
                bstate = banks[rank][group][bank]
                open_row = bstate.open_row
                if open_row is None:
                    # ACTIVATE on behalf of the bucket head.
                    earliest = bstate.next_act
                    bound = fold_act[rank][group]
                    if bound > earliest:
                        earliest = bound
                    if earliest <= now and best_col is None:
                        head = bucket[0]
                        seq = head.queue_seq
                        if best_act is None or seq < best_act_seq:
                            best_act = (
                                CommandType.ACTIVATE, rank, group, bank,
                                head.mapped.row, head,
                            )
                            best_act_seq = seq
                    if earliest < wake:
                        wake = earliest
                    continue
                cached = memo.get(key)
                if (
                    cached is not None
                    and cached[0] == versions[key]
                    and cached[1] == open_row
                ):
                    req = cached[2]
                    hits += 1
                else:
                    req = derive(bucket, open_row)
                    memo[key] = (versions[key], open_row, req)
                    misses += 1
                if req is not None:
                    # Column command for the oldest row hit.
                    earliest = bstate.next_wr if is_write_q else bstate.next_rd
                    bound = col_fold[rank][group]
                    if bound > earliest:
                        earliest = bound
                    bound = col_bus[rank]
                    if bound > earliest:
                        earliest = bound
                    if earliest <= now:
                        col_key = (req.arrival, req.serial)
                        if best_col is None or col_key < best_col_key:
                            best_col = (
                                col_cmd, rank, group, bank, open_row, req,
                            )
                            best_col_key = col_key
                else:
                    # PRECHARGE; its only constraint is the bank register.
                    earliest = bstate.next_pre
                    if (
                        earliest <= now
                        and best_col is None
                        and best_act is None
                    ):
                        seq = bucket[0].queue_seq
                        if best_pre is None or seq < best_pre_seq:
                            best_pre = (
                                CommandType.PRECHARGE, rank, group, bank,
                                open_row, None,
                            )
                            best_pre_seq = seq
                if earliest < wake:
                    wake = earliest
            # Every candidate's earliest is floored at ``now``; flooring
            # the minimum once is the same thing.
            if wake < now:
                wake = now
            self.cand_bank_hits += hits
            self.cand_bank_misses += misses
            won = best_col if best_col is not None else (
                best_act if best_act is not None else best_pre
            )
            if won is not None:
                pick = CandidateCommand(
                    won[0], won[1], won[2], won[3], won[4], now, won[5]
                )
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
        if self.refresh is not None:
            self.refresh.accrue(now)

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
            self.channel.issue(cmd, rank, group, bank, now)
            if cmd is CommandType.REFRESH:
                self.refresh.paid(rank)
            self._state_version += 1
            self.next_cmd_cycle = now + 1
            return True

        pick, _ = self._schedule_query(now)
        if pick is None:
            action = self._idle_refresh_action(now)
            if action is not None:
                cmd, rank, group, bank, earliest = action
                if earliest <= now:
                    self.channel.issue(cmd, rank, group, bank, now)
                    if cmd is CommandType.REFRESH:
                        self.refresh.paid(rank)
                    self._state_version += 1
                    self.next_cmd_cycle = now + 1
                    return True
            return False

        if pick.cmd.is_column:
            req = pick.request
            scheme = self.policy.choose(self, req, now)
            fmt = scheme_info(scheme)
            auto_pre = (
                self.page_policy == "closed"
                and not self._row_has_more_hits(req)
            )
            data_end = self.channel.issue(
                pick.cmd, pick.rank, pick.group, pick.bank, now,
                bus_cycles=fmt.bus_cycles, scheme=scheme,
                request_id=req.line_id, auto_precharge=auto_pre,
            )
            req.issue_cycle = now
            req.finish_cycle = data_end
            req.scheme = scheme
            queue = self.write_queue if req.is_write else self.read_queue
            queue.remove(req)
            self.has_pending = (
                len(self.read_queue) > 0 or len(self.write_queue) > 0
            )
            self.completed.append(req)
            self.scheme_counts[scheme] = self.scheme_counts.get(scheme, 0) + 1
        else:
            self.channel.issue(
                pick.cmd, pick.rank, pick.group, pick.bank, now, row=pick.row
            )
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

        times: list[int] = []
        refresh = self.refresh
        if refresh is not None:
            times.append(refresh.next_event())
            if refresh.overdue:
                action = self._urgent_refresh_action(now)
            elif not self.has_pending:
                action = self._idle_refresh_action(now)
            else:
                action = None
            if action is not None:
                times.append(action[4])
        if self.has_pending:
            _, wake = self._schedule_query(now)
            if wake is not None:
                times.append(wake)
        if not times:
            self._wake_version = self._state_version
            self._wake_time = None
            return None
        wake = min(times)
        self._wake_version = self._state_version
        self._wake_time = wake
        return max(floor, wake)
