"""Per-state property test for the channel's folded timing bounds.

``DRAMChannel`` folds its rank- and group-scope registers (tCCD, tWTR,
tRRD, tFAW) and its data-bus state into one bound per (rank, bank
group) and command, kept in the flat ``bounds`` list.  The controller's
fused ``_schedule_query`` and MiL's ``column_ready_within`` read those
bounds directly instead of asking ``earliest_issue`` bank by bank.
Hypothesis drives random request schedules (reads and writes, row hits
and conflicts, prefetches, open and closed page, DDR4 and LPDDR3, write
drain engaging and not) to random cycles, and at every visited state
holds the three readers to independent references:

* ``earliest_issue`` and ``column_ready_within`` to the raw per-scope
  registers combined by the pre-fold formula, kept here;
* ``_schedule_query`` to the full-scan FR-FCFS oracle
  (:func:`tests.event_oracle.full_scan`).
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.controller import AlwaysScheme, ChannelController, MemoryRequest
from repro.dram import (
    DDR4_3200,
    DDR4_GEOMETRY,
    LPDDR3_1600,
    LPDDR3_GEOMETRY,
    AddressMapper,
    CommandType,
)
from tests.event_oracle import full_scan

ACT, PRE = CommandType.ACTIVATE, CommandType.PRECHARGE
RD, WR = CommandType.READ, CommandType.WRITE

DEVICES = {
    "ddr4": (DDR4_3200, DDR4_GEOMETRY),
    "lpddr3": (LPDDR3_1600, LPDDR3_GEOMETRY),
}


def reference_earliest(ch, cmd, rank, group, bank, now):
    """The unfolded ``earliest_issue`` formula over the raw registers."""
    t = ch.timing
    b = ch.banks[rank][group][bank]
    r = ch.ranks[rank]
    if cmd is ACT:
        earliest = max(now, b.next_act, r.group_next_act[group])
        if len(r.act_history) >= 4:
            earliest = max(earliest, r.act_history[-4] + t.FAW)
        return earliest
    if cmd is PRE:
        return max(now, b.next_pre)
    is_write = cmd is WR
    if is_write:
        earliest = max(now, b.next_wr, r.group_next_wr[group])
    else:
        earliest = max(now, b.next_rd, r.next_rd, r.group_next_rd[group])
    latency = ch._data_latency(is_write)
    gap = ch._bus_gap(rank, is_write)
    return max(earliest, ch.bus_free_at + gap - latency)


def reference_ready_within(mc, now, window, exclude, include_prefetches,
                           reads_only):
    """Request-by-request rdyX count over the raw registers."""
    ch = mc.channel
    queues = [mc.read_queue]
    if mc.draining_now:
        queues.append(mc.write_queue)
    count = 0
    for queue in queues:
        cmd = WR if queue is mc.write_queue else RD
        for req in queue:
            m = req.mapped
            if ch.open_row(m.rank, m.bank_group, m.bank) != m.row:
                continue
            if req is exclude:
                continue
            if req.is_prefetch and not include_prefetches:
                continue
            if reads_only and req.is_write:
                continue
            earliest = reference_earliest(
                ch, cmd, m.rank, m.bank_group, m.bank, now
            )
            if earliest <= now + window:
                count += 1
    return count


def check_state(mc, now, probe):
    """Every folded-bound reader agrees with its reference at ``now``."""
    ch = mc.channel
    geo = mc.geometry
    for rank in range(geo.ranks):
        for group in range(geo.bank_groups):
            for bank in range(geo.banks_per_group):
                for cmd in (ACT, PRE, RD, WR):
                    assert ch.earliest_issue(cmd, rank, group, bank, now) == (
                        reference_earliest(ch, cmd, rank, group, bank, now)
                    )

    # The fused pass first (it commits any pending drain flip), then
    # the full-scan oracle over the same state.
    assert mc._schedule_query(now) == full_scan(mc, now)

    window, include_prefetches, reads_only, exclude_at = probe
    queued = list(mc.read_queue) + list(mc.write_queue)
    exclude = queued[exclude_at % len(queued)] if queued else None
    assert mc.column_ready_within(
        now, window, exclude=exclude,
        include_prefetches=include_prefetches, reads_only=reads_only,
    ) == reference_ready_within(
        mc, now, window, exclude, include_prefetches, reads_only
    )


@st.composite
def scenarios(draw):
    device = draw(st.sampled_from(sorted(DEVICES)))
    geo = DEVICES[device][1]
    # A few rows per bank, so the same bank sees both hits and conflicts.
    target = st.tuples(
        st.integers(0, geo.ranks - 1),
        st.integers(0, geo.bank_groups - 1),
        st.integers(0, geo.banks_per_group - 1),
        st.integers(0, 2),  # row
        st.integers(0, 7),  # column
    )
    request = st.tuples(
        target,
        st.booleans(),  # is_write
        st.integers(0, 9).map(lambda x: x == 0),  # is_prefetch, ~10%
        st.integers(0, 12),  # arrival gap
    )
    requests = draw(st.lists(request, min_size=1, max_size=40))
    write_queue = draw(st.integers(4, 16))
    drain_high = draw(st.integers(1, write_queue))
    drain_low = draw(st.integers(0, drain_high - 1))
    return dict(
        device=device,
        page_policy=draw(st.sampled_from(["open", "closed"])),
        scheme=draw(st.sampled_from(["dbi", "milc", "3lwc"])),
        write_queue=write_queue,
        drain_high=drain_high,
        drain_low=drain_low,
        requests=requests,
        # Cycle advances: 0 follows next_event, k > 0 jumps k cycles.
        jumps=draw(st.lists(st.integers(0, 40), min_size=1, max_size=12)),
        probes=draw(st.lists(
            st.tuples(
                st.integers(0, 20),  # look-ahead window
                st.booleans(),  # include_prefetches
                st.booleans(),  # reads_only
                st.integers(0, 63),  # which queued request to exclude
            ),
            min_size=1, max_size=8,
        )),
    )


def _build(sc):
    timing, geo = DEVICES[sc["device"]]
    mapper = AddressMapper(geo, channels=1)
    mc = ChannelController(
        timing, geo, policy=AlwaysScheme(sc["scheme"]),
        read_queue_size=16, write_queue_size=sc["write_queue"],
        drain_high=sc["drain_high"], drain_low=sc["drain_low"],
        page_policy=sc["page_policy"], keep_cmd_log=True,
    )
    base = mapper.map(0)
    arrivals = []
    now = 0
    for (rank, group, bank, row, col), is_write, is_prefetch, gap in (
        sc["requests"]
    ):
        now += gap
        m = replace(base, rank=rank, bank_group=group, bank=bank,
                    row=row, column=col)
        req = MemoryRequest(
            address=mapper.reverse(m), is_write=is_write,
            is_prefetch=is_prefetch and not is_write,
        )
        req.mapped = m
        arrivals.append((now, req))
    return mc, arrivals


def _drive(sc) -> set:
    """Run one scenario, checking every visited state; drain modes seen."""
    mc, arrivals = _build(sc)
    jumps, probes = sc["jumps"], sc["probes"]
    now = idx = visited = 0
    drain_modes = set()
    while idx < len(arrivals) or mc.has_pending:
        while idx < len(arrivals) and arrivals[idx][0] <= now:
            req = arrivals[idx][1]
            if not mc.can_accept(req.is_write):
                break
            mc.enqueue(req, now)
            idx += 1
        check_state(mc, now, probes[visited % len(probes)])
        drain_modes.add(mc.draining_now)
        mc.step(now)
        mc.drain_completions()
        jump = jumps[visited % len(jumps)]
        visited += 1
        nxt = mc.next_event(now) if jump == 0 else now + jump
        if idx < len(arrivals):
            due = arrivals[idx][0]
            nxt = due if nxt is None else min(nxt, due)
        now = max(now + 1, nxt if nxt is not None else now + 1)
        assert visited < 20_000, "schedule made no progress"
    check_state(mc, now, probes[0])
    assert mc.audit() == []
    return drain_modes


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_folded_bounds_match_references_at_every_state(sc):
    _drive(sc)


def test_states_under_write_drain_are_checked():
    """A write-heavy schedule crosses the watermarks in both directions."""
    sc = dict(
        device="ddr4", page_policy="open", scheme="dbi", write_queue=4,
        drain_high=2, drain_low=0,
        requests=[((0, 0, i % 4, 0, i), i % 3 != 0, False, 1)
                  for i in range(12)],
        jumps=[0], probes=[(8, False, False, 0)],
    )
    assert _drive(sc) == {False, True}
