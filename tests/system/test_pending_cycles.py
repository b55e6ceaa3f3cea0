"""Unit tests for the shared Figure 5 pending-cycles accrual helper.

A channel is "pending" when it has queued work *or* a burst's data tail
is still streaming on its bus (the denominator of Figure 5's pending
fraction).  The event driver and the lockstep oracle
(``tests/event_oracle.py``) both charge jumps through
:func:`repro.system.simulator.accrue_pending_cycles`; these tests pin
its semantics across multi-cycle jumps — in particular the clipped
bus-tail case the event heap's long skips exercise — and its
telescoping property (splitting a jump anywhere charges the same
total), which is exactly what lets the event driver visit fewer cycles
than the lockstep oracle without the counters diverging.
"""

from __future__ import annotations

from repro.system.simulator import accrue_pending_cycles


class _FakeChannel:
    def __init__(self, bus_free_at: int):
        self.bus_free_at = bus_free_at


class _FakeController:
    def __init__(self, has_pending: bool, bus_free_at: int = 0):
        self.has_pending = has_pending
        self.channel = _FakeChannel(bus_free_at)


def test_queued_channel_charges_whole_jump():
    counters = [0]
    accrue_pending_cycles([_FakeController(True)], counters, 100, 175)
    assert counters == [75]


def test_idle_channel_with_no_tail_charges_nothing():
    counters = [0]
    accrue_pending_cycles(
        [_FakeController(False, bus_free_at=90)], counters, 100, 175
    )
    assert counters == [0]


def test_bus_tail_inside_jump_is_clipped_to_tail():
    # Queue empty, but the last burst streams until cycle 130: of the
    # 100 -> 175 jump only 30 cycles count as pending.
    counters = [0]
    accrue_pending_cycles(
        [_FakeController(False, bus_free_at=130)], counters, 100, 175
    )
    assert counters == [30]


def test_bus_tail_past_jump_charges_whole_jump():
    counters = [0]
    accrue_pending_cycles(
        [_FakeController(False, bus_free_at=500)], counters, 100, 175
    )
    assert counters == [75]


def test_per_channel_independence():
    controllers = [
        _FakeController(True),
        _FakeController(False, bus_free_at=110),
        _FakeController(False, bus_free_at=0),
    ]
    counters = [0, 0, 0]
    accrue_pending_cycles(controllers, counters, 100, 140)
    assert counters == [40, 10, 0]


def test_accrual_telescopes_over_event_free_split_points():
    """One long jump equals any chain of shorter jumps over static state.

    The controllers' state is untouched between sub-jumps (that is what
    "event-free" means), so the event heap's single 100 -> 175 charge
    must equal the lockstep loop's cycle-by-cycle accrual.
    """
    controllers = [
        _FakeController(True),
        _FakeController(False, bus_free_at=130),
    ]
    whole = [0, 0]
    accrue_pending_cycles(controllers, whole, 100, 175)

    split = [0, 0]
    for start in range(100, 175):
        accrue_pending_cycles(controllers, split, start, start + 1)
    assert split == whole

    halves = [0, 0]
    accrue_pending_cycles(controllers, halves, 100, 133)
    accrue_pending_cycles(controllers, halves, 133, 175)
    assert halves == whole
