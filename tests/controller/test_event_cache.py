"""The scheduling-loop caches must be invisible in the command stream.

``ChannelController`` keeps per-bank scheduling records that only dirty
banks re-derive, memoises its fused ``(pick, wake)`` pass per state
version, and caches its next-wake time; any stale read would reorder or
drop DRAM commands.  These tests run the
same request schedule through the production controller and through
:class:`tests.event_oracle.OracleController`, which bypasses every memo,
and hold the two command logs to *byte identity* — same commands, same
cycles, same order — with the independent protocol auditor signing off
on both runs.  This is the gate the optimisation rides behind.
"""

from __future__ import annotations

import random

import pytest

from repro.controller import ChannelController
from repro.dram import DDR4_3200, DDR4_GEOMETRY
from tests.event_oracle import OracleController

from .test_controller import make_request, run_to_completion


def _schedule(seed: int, n: int = 48) -> list[tuple[int, bool]]:
    """(line, is_write) pairs mixing row hits, conflicts, and drains."""
    rng = random.Random(seed)
    schedule = []
    for _ in range(n):
        line = rng.randrange(0, 4096)
        if rng.random() < 0.3:
            line = rng.randrange(0, 4)  # force some row/bank reuse
        schedule.append((line, rng.random() < 0.4))
    return schedule


def _run(schedule, page_policy: str, controller=ChannelController):
    mc = controller(
        DDR4_3200, DDR4_GEOMETRY, keep_cmd_log=True,
        page_policy=page_policy,
    )
    requests = [make_request(line, write=w) for line, w in schedule]
    done, finish = run_to_completion(mc, requests)
    # Duplicate writes coalesce in the queue, so they never complete
    # as separate requests; everything else must drain.
    assert len(done) == len(requests) - mc.coalesced_writes
    return mc, done, finish


@pytest.mark.parametrize("page_policy", ["open", "closed"])
@pytest.mark.parametrize("seed", [0, 7])
def test_cache_off_is_byte_identical(seed, page_policy):
    schedule = _schedule(seed)
    cached_mc, cached_done, cached_finish = _run(schedule, page_policy)
    plain_mc, plain_done, plain_finish = _run(
        schedule, page_policy, OracleController
    )
    # The oracle really bypassed the scheduling records.
    assert cached_mc.cand_bank_hits > 0
    assert plain_mc.cand_bank_hits + plain_mc.cand_bank_misses == 0

    # The full command log — (cycle, command, rank, group, bank, row) —
    # must match entry for entry, and so must every data-bus burst.
    assert cached_mc.channel.command_log == plain_mc.channel.command_log
    assert cached_mc.channel.transactions == plain_mc.channel.transactions
    assert cached_finish == plain_finish
    per_req = lambda done: [  # noqa: E731
        (r.line_id, r.issue_cycle, r.finish_cycle, r.scheme)
        for r in done
    ]
    assert per_req(cached_done) == per_req(plain_done)

    # Both runs replay cleanly through the independent auditor, so the
    # shared log is not just identical but protocol-correct.
    assert cached_mc.audit() == []
    assert plain_mc.audit() == []


def test_cache_is_actually_exercised():
    """Guard against the records silently never being reused (dead cache)."""
    mc = ChannelController(DDR4_3200, DDR4_GEOMETRY)
    for line in (0, 1, 256, 257):  # two row hits in each of two banks
        mc.enqueue(make_request(line), 0)
    now = 0
    while mc.channel.activate_count < 2 or mc._schedule_query(now)[0] is None:
        mc.step(now)
        now = mc.next_event(now)
    # Both banks open, a column ready: same state, same cycle, and the
    # second query is the memoised pass (same pick object, no record
    # revisited).
    pick, wake = mc._schedule_query(now)
    visits = mc.cand_bank_hits + mc.cand_bank_misses
    assert mc._schedule_query(now) == (pick, wake)
    assert mc._schedule_query(now)[0] is pick
    assert mc.cand_bank_hits + mc.cand_bank_misses == visits
    # Issuing the pick dirties only the bank it touched (in both
    # directions); the next pass re-derives that one record and reuses
    # the untouched bank's.
    hits, misses = mc.cand_bank_hits, mc.cand_bank_misses
    assert mc.step(now) is True
    key = (pick.rank, pick.group, pick.bank)
    assert mc._dirty_rd == {key}
    assert key in mc._dirty_wr
    assert mc._schedule_query(now + 1)[0] is not pick
    assert mc.cand_bank_misses == misses + 1
    assert mc.cand_bank_hits > hits
