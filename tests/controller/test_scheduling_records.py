"""The scheduling records must be invisible: every pass equals a full scan.

``ChannelController`` keeps one scheduling record per bank and queue
direction and re-derives only the banks marked dirty since that
direction was last scheduled; a pass that found no pick also answers
the same state version at its wake from the argmin memo.  Besides an
enqueue and a column issue, three paths invalidate records, and a miss
on any of them would reorder DRAM commands:

* REFRESH — urgent (debt exhausted while requests are queued) and idle;
  it moves every bank register of its rank;
* write-drain flips in both directions — each direction keeps its own
  records and dirty set;
* closed-page auto-precharge — a column command that also closes its
  bank.

Random schedules with a shortened refresh interval drive all three, and
at every visited state ``_schedule_query`` is held to the full-scan
oracle (:func:`tests.event_oracle.full_scan`) at the state's own cycle,
at earlier and later cycles of the same state, and at the wake the
argmin memo answers.
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
)
from tests.event_oracle import full_scan

DEVICES = {
    "ddr4": (DDR4_3200, DDR4_GEOMETRY),
    "lpddr3": (LPDDR3_1600, LPDDR3_GEOMETRY),
}


def _memo_answers(mc, now) -> bool:
    """Will ``_schedule_query(now)`` be answered by the argmin memo?"""
    return (
        mc._sched_version == mc._state_version
        and mc._sched_now != now
        and mc._sched_pick is None
        and mc._sched_wake == now
    )


def check_queries(mc, now, offsets, seen) -> None:
    """``_schedule_query`` equals the full scan at ``now`` and around it."""
    for t in [now] + [max(0, now + k) for k in offsets]:
        if _memo_answers(mc, t):
            seen.add("argmin memo")
        if mc._sched_version == mc._state_version and t < mc._sched_now:
            seen.add("earlier cycle")
        assert mc._schedule_query(t) == full_scan(mc, t), t
    # The wake the last query returned, answered from the memo when
    # that query found no pick.
    wake = mc._schedule_query(now)[1]
    if wake is not None and wake != now:
        if _memo_answers(mc, wake):
            seen.add("argmin memo")
        assert mc._schedule_query(wake) == full_scan(mc, wake)


def _build(sc):
    timing, geo = DEVICES[sc["device"]]
    timing = replace(timing, REFI=sc["refi"], RFC=sc["rfc"])
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


def drive(sc) -> set:
    """Run one schedule, checking every visited state; what it covered."""
    mc, arrivals = _build(sc)
    jumps, offsets = sc["jumps"], sc["offsets"]
    seen: set = set()
    now = idx = visited = 0
    while idx < len(arrivals) or mc.has_pending:
        while idx < len(arrivals) and arrivals[idx][0] <= now:
            req = arrivals[idx][1]
            if not mc.can_accept(req.is_write):
                break
            mc.enqueue(req, now)
            idx += 1
        check_queries(mc, now, offsets[visited % len(offsets)], seen)
        draining = mc.draining_now
        refreshes = mc.channel.refresh_count
        pending = mc.has_pending
        mc.step(now)
        if mc.channel.refresh_count > refreshes:
            seen.add("urgent refresh" if pending else "idle refresh")
        mc.drain_completions()
        # The jumps play once or twice; then the controller runs on
        # next_event, so refresh debt from long jumps is repaid.
        jump = jumps[visited % len(jumps)] if visited < 2 * len(jumps) else 0
        visited += 1
        nxt = mc.next_event(now) if jump == 0 else now + jump
        if mc.draining_now != draining:
            seen.add("drain on" if mc.draining_now else "drain off")
        if idx < len(arrivals):
            due = arrivals[idx][0]
            nxt = due if nxt is None else min(nxt, due)
        now = max(now + 1, nxt if nxt is not None else now + 1)
        assert visited < 20_000, "schedule made no progress"
    check_queries(mc, now, offsets[0], seen)
    if mc.channel.auto_precharges:
        seen.add("auto-precharge")
    assert mc.audit() == []
    return seen


@st.composite
def scenarios(draw):
    device = draw(st.sampled_from(sorted(DEVICES)))
    geo = DEVICES[device][1]
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
        st.integers(0, 30),  # arrival gap
    )
    write_queue = draw(st.integers(4, 16))
    drain_high = draw(st.integers(1, write_queue))
    # Both ranks' refreshes (tRFC plus the precharges before them, up to
    # tRAS + tRP each) must fit in one tREFI, or the ranks stay overdue
    # and no request is ever served.
    refi = draw(st.integers(200, 400))
    return dict(
        device=device,
        page_policy=draw(st.sampled_from(["open", "closed"])),
        scheme=draw(st.sampled_from(["dbi", "milc", "3lwc"])),
        write_queue=write_queue,
        drain_high=drain_high,
        drain_low=draw(st.integers(0, drain_high - 1)),
        refi=refi,
        rfc=draw(st.integers(4, 24)),
        requests=draw(st.lists(request, min_size=1, max_size=60)),
        # Cycle advances: 0 follows next_event, k > 0 jumps k cycles
        # (long jumps let refresh debt pile up while requests wait).
        jumps=draw(st.lists(st.integers(0, 9 * refi), min_size=1,
                            max_size=12)),
        offsets=draw(st.lists(
            st.lists(st.integers(-60, 60), max_size=3),
            min_size=1, max_size=6,
        )),
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_every_pass_matches_the_full_scan(sc):
    drive(sc)


def _fixed(page_policy: str, device: str = "ddr4") -> dict:
    """Reads left waiting across a long stall, then drains and idling."""
    geo = DEVICES[device][1]
    requests = []
    for i in range(48):
        target = (i % 2, (i // 2) % geo.bank_groups, i % geo.banks_per_group,
                  (i // 5) % 3, i % 8)
        if i < 10:  # a burst of reads the long jump leaves waiting
            requests.append((target, False, False, 1))
        else:  # writes and reads: drains, then an idle stretch
            gap = 1500 if i == 10 else (600 if i == 30 else 2)
            requests.append((target, i % 3 != 0, i % 11 == 0, gap))
    return dict(
        device=device, page_policy=page_policy, scheme="milc",
        write_queue=6, drain_high=4, drain_low=1, refi=90, rfc=20,
        requests=requests,
        jumps=[0, 0, 0, 0, 0, 1000, 0, 0, 0, 0, 0, 0],
        offsets=[[-7], [0, 25], [-40, 11, 60], []],
    )


def test_schedules_cover_every_invalidation_path():
    """The fixed schedules reach every path the records depend on."""
    seen = drive(_fixed("open")) | drive(_fixed("closed"))
    seen |= drive(_fixed("closed", device="lpddr3"))
    assert {
        "urgent refresh", "idle refresh", "drain on", "drain off",
        "auto-precharge", "argmin memo", "earlier cycle",
    } <= seen
