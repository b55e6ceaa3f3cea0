"""The event-heap driver must be invisible in every observable.

:func:`tests.event_oracle.lockstep_oracle` runs the original
advance-everything loop with the controller recomputing its FR-FCFS
candidates from scratch each call.  The production path runs the
cross-channel event heap over the incremental candidate cache.  These
tests randomize the workload, the system shape (channels, page policy,
machine, seed) and the coding policy — fixed-burst DBI and 3-LWC, and
MiL's variable bursts, whose rdyX decision reads the controller's
queues through ``column_ready_within`` — and hold the pair to *byte
identity*: same command log, same data-bus transactions, same cycle
counts, same pending accrual — with the independent protocol auditor
signing off on the logs.  This is the oracle the whole event-core
rebuild rides behind (see DESIGN.md, "Event core").
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import ProtocolAuditor
from repro.coding.pipeline import precompute_line_zeros
from repro.core.policies import make_factory, sent_schemes
from repro.system.machine import SYSTEMS
from repro.system.simulator import simulate
from repro.workloads.benchmarks import build_trace
from tests.event_oracle import lockstep_oracle

# Fixed-burst baselines plus both MiL long codes.
POLICIES = ("dbi", "mil", "3lwc", "mil-lwc12")


def _simulate(name, config, seed, accesses, policy, oracle):
    trace = build_trace(name, config, seed=seed, accesses_per_core=accesses)
    zeros = precompute_line_zeros(
        trace.line_data, sent_schemes(policy), digest=trace.line_digest
    )
    factory = make_factory(policy, zeros)
    if oracle:
        with lockstep_oracle():
            return simulate(trace, config, factory, record_commands=True)
    return simulate(trace, config, factory, record_commands=True)


def _pair(name, config, seed, accesses, policy):
    cached = _simulate(name, config, seed, accesses, policy, False)
    oracle = _simulate(name, config, seed, accesses, policy, True)
    _assert_byte_identical(cached, oracle, config)
    return cached


def _assert_byte_identical(cached, oracle, config):
    assert cached.cycles == oracle.cycles
    assert cached.pending_cycles == oracle.pending_cycles
    assert cached.demand_reads == oracle.demand_reads
    assert cached.read_latency_sum == oracle.read_latency_sum
    assert cached.scheme_counts == oracle.scheme_counts
    auditor = ProtocolAuditor(config.timing, config.geometry)
    for a, b in zip(cached.controllers, oracle.controllers):
        assert a.channel.command_log == b.channel.command_log
        assert a.channel.transactions == b.channel.transactions
        assert auditor.check(a.channel.command_log) == []


# Small scales keep each example fast; the grid still spans channels,
# benchmarks, policies, and seeds, and each example runs two full sims.
GRID = dict(
    bench=st.sampled_from(["GUPS", "CG", "MG"]),
    channels=st.sampled_from([1, 2, 4]),
    page_policy=st.sampled_from(["open", "closed"]),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(min_value=0, max_value=2**16),
    accesses=st.integers(min_value=8, max_value=48),
)


class TestEventHeapEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(**GRID)
    def test_byte_identical_on_random_shapes(
        self, bench, channels, page_policy, policy, seed, accesses
    ):
        config = replace(
            SYSTEMS["ddr4-server"], channels=channels,
            page_policy=page_policy,
        )
        _pair(bench, config, seed, accesses, policy)

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        policy=st.sampled_from(POLICIES),
    )
    def test_byte_identical_on_mobile_machine(self, seed, policy):
        config = SYSTEMS["lpddr3-mobile"]
        _pair("GUPS", config, seed, 32, policy)

    @pytest.mark.parametrize("page_policy", ["open", "closed"])
    @pytest.mark.parametrize("system", ["ddr4-server", "lpddr3-mobile"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_byte_identical_per_policy(self, policy, system, page_policy):
        """Every policy, machine and page policy, not just sampled ones."""
        config = replace(SYSTEMS[system], page_policy=page_policy)
        cached = _pair("GUPS", config, 0, 40, policy)
        if policy.startswith("mil"):
            # The run really mixed burst lengths through the oracle.
            assert len(cached.scheme_counts) > 1


class TestHeapCounters:
    def test_event_queue_is_exercised_and_laziness_observable(self):
        """A real run pops events and discards some stale entries.

        Superseded controller wakes stay in the heap until popped;
        a multi-channel run with enough traffic must both pop (the
        heap is the driver) and discard (invalidation is lazy, the
        design the ``pops``/``stale`` probe pair exists to watch).
        """
        config = SYSTEMS["ddr4-server"]
        trace = build_trace("GUPS", config, seed=7, accesses_per_core=120)
        result = simulate(trace, config)
        assert result.stats["event_queue_pops"] > 0
        assert result.stats["event_queue_stale"] > 0
        assert (
            result.stats["event_queue_stale"]
            < result.stats["event_queue_pops"]
        )

    def test_lockstep_oracle_reports_zero_heap_activity(self):
        config = SYSTEMS["ddr4-server"]
        trace = build_trace("GUPS", config, seed=7, accesses_per_core=24)
        with lockstep_oracle():
            result = simulate(trace, config)
        assert result.stats["event_queue_pops"] == 0
        assert result.stats["event_queue_stale"] == 0
