"""Unit tests for the oracle's full-scan FR-FCFS generator and picker."""

from dataclasses import replace

from repro.controller import MemoryRequest
from repro.dram import (
    DDR4_3200,
    DDR4_GEOMETRY,
    AddressMapper,
    CommandType,
    DRAMChannel,
)
from tests.event_oracle import FRFCFSScheduler

MAPPER = AddressMapper(DDR4_GEOMETRY, channels=2)


def req(line, write=False, arrival=0):
    m = replace(MAPPER.map(line * 64), channel=0)
    r = MemoryRequest(address=MAPPER.reverse(m), is_write=write)
    r.mapped = m
    r.arrival = arrival
    return r


def fixture():
    channel = DRAMChannel(DDR4_3200, DDR4_GEOMETRY)
    return channel, FRFCFSScheduler(channel)


class TestCandidateGeneration:
    def test_closed_bank_yields_activate(self):
        channel, sched = fixture()
        cands = sched.candidates([req(0)], now=0)
        assert len(cands) == 1
        assert cands[0].cmd is CommandType.ACTIVATE

    def test_open_row_yields_column(self):
        channel, sched = fixture()
        r = req(0)
        m = r.mapped
        channel.issue(CommandType.ACTIVATE, m.rank, m.bank_group, m.bank,
                      0, row=m.row)
        cands = sched.candidates([r], now=100)
        assert cands[0].cmd is CommandType.READ

    def test_write_request_yields_write(self):
        channel, sched = fixture()
        r = req(0, write=True)
        m = r.mapped
        channel.issue(CommandType.ACTIVATE, m.rank, m.bank_group, m.bank,
                      0, row=m.row)
        cands = sched.candidates([r], now=100)
        assert cands[0].cmd is CommandType.WRITE

    def test_conflict_precharges_only_without_hits(self):
        channel, sched = fixture()
        lines_per_row = DDR4_GEOMETRY.lines_per_row
        hit = req(0)
        conflict = req(lines_per_row * 32)  # same bank, another row
        m = hit.mapped
        channel.issue(CommandType.ACTIVATE, m.rank, m.bank_group, m.bank,
                      0, row=m.row)
        # With the hit queued: no precharge candidate for the conflict.
        cands = sched.candidates([hit, conflict], now=100)
        assert all(c.cmd is not CommandType.PRECHARGE for c in cands)
        # Without it: precharge on behalf of the conflicting request.
        cands = sched.candidates([conflict], now=100)
        assert any(c.cmd is CommandType.PRECHARGE for c in cands)

    def test_one_row_command_per_bank(self):
        channel, sched = fixture()
        a = req(0)
        b = req(1)  # same row/bank as a while closed: one ACT only
        cands = sched.candidates([a, b], now=0)
        acts = [c for c in cands if c.cmd is CommandType.ACTIVATE]
        assert len(acts) == 1


class TestPick:
    def test_ready_column_beats_activate(self):
        channel, sched = fixture()
        hit = req(0, arrival=50)
        miss = req(1 << 13, arrival=1)  # older, but needs an ACT
        m = hit.mapped
        channel.issue(CommandType.ACTIVATE, m.rank, m.bank_group, m.bank,
                      0, row=m.row)
        cands = sched.candidates([miss, hit], now=100)
        pick = sched.pick(cands, now=100)
        assert pick.cmd is CommandType.READ  # first-ready wins

    def test_oldest_column_among_ready(self):
        channel, sched = fixture()
        young = req(0, arrival=90)
        old = req(1, arrival=10)
        m = young.mapped
        channel.issue(CommandType.ACTIVATE, m.rank, m.bank_group, m.bank,
                      0, row=m.row)
        cands = sched.candidates([young, old], now=100)
        pick = sched.pick(cands, now=100)
        assert pick.request is old

    def test_nothing_ready_returns_none(self):
        channel, sched = fixture()
        r = req(0)
        m = r.mapped
        channel.issue(CommandType.ACTIVATE, m.rank, m.bank_group, m.bank,
                      0, row=m.row)
        # tRCD not yet elapsed: the read exists but is not ready.
        cands = sched.candidates([r], now=1)
        assert sched.pick(cands, now=1) is None

    def test_next_wakeup_is_min_earliest(self):
        channel, sched = fixture()
        r = req(0)
        m = r.mapped
        channel.issue(CommandType.ACTIVATE, m.rank, m.bank_group, m.bank,
                      0, row=m.row)
        cands = sched.candidates([r], now=1)
        assert sched.next_wakeup(cands) == DDR4_3200.RCD
        assert sched.next_wakeup([]) is None
