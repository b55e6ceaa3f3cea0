"""Tests for the cache-hierarchy trace filter."""

import dataclasses

import numpy as np
import pytest

from repro.system import NIAGARA_SERVER, CoreAccessStream, filter_through_hierarchy
from repro.workloads import DataModel


def model():
    return DataModel({"random": 1.0})


def stream(addresses, writes=None, ipa=4.0, **kwargs):
    addresses = np.asarray(addresses, dtype=np.int64)
    if writes is None:
        writes = np.zeros(len(addresses), dtype=bool)
    return CoreAccessStream(addresses, np.asarray(writes), ipa, **kwargs)


class TestFiltering:
    def test_repeated_line_yields_single_miss(self):
        s = stream([0, 8, 16, 24, 0, 8])
        trace = filter_through_hierarchy([s], NIAGARA_SERVER, model())
        demand = [
            r for r in trace.records_by_core[0]
            if not r.is_write and not r.is_prefetch
        ]
        assert len(demand) == 1
        assert demand[0].address == 0

    def test_distinct_lines_all_miss(self):
        # 64-line strides defeat both the caches and the prefetcher's
        # stream-match window, so every access reaches memory.
        s = stream([i * 4096 for i in range(300)])
        trace = filter_through_hierarchy([s], NIAGARA_SERVER, model())
        assert trace.demand_reads == 300

    def test_gap_reflects_arithmetic_intensity(self):
        # The L2 lookup latency adds a fixed floor to every gap, so the
        # ratio is attenuated relative to the raw intensity ratio.
        heavy = stream([i * 4096 for i in range(50)], ipa=60.0)
        light = stream([i * 4096 for i in range(50)], ipa=2.0)
        t_heavy = filter_through_hierarchy([heavy], NIAGARA_SERVER, model())
        t_light = filter_through_hierarchy([light], NIAGARA_SERVER, model())
        g_heavy = np.mean([r.gap for r in t_heavy.records_by_core[0]])
        g_light = np.mean([r.gap for r in t_light.records_by_core[0]])
        assert g_heavy > 1.8 * g_light

    def test_l2_hit_refreshes_lru(self):
        # One-line L1, one 2-way L2 set: the L2 hit on line 0 makes the
        # next miss evict line 1, so the final access to 0 hits again.
        tiny = dataclasses.replace(
            NIAGARA_SERVER, l1_bytes=64, l1_ways=1, l2_bytes=128, l2_ways=2
        )
        s = stream([0, 1 << 20, 0, 2 << 20, 0])
        trace = filter_through_hierarchy([s], tiny, model())
        assert [r.address for r in trace.records_by_core[0]] == [
            0, 1 << 20, 2 << 20
        ]

    def test_line_ids_index_line_data(self):
        s = stream([i * 4096 for i in range(20)])
        trace = filter_through_hierarchy([s], NIAGARA_SERVER, model())
        ids = [r.line_id for recs in trace.records_by_core for r in recs]
        assert ids == list(range(trace.total_records))
        assert trace.line_data.shape == (trace.total_records, 64)

    def test_line_data_matches_data_model(self):
        s = stream([i * 4096 for i in range(10)])
        dm = model()
        trace = filter_through_hierarchy([s], NIAGARA_SERVER, dm)
        for rec in trace.records_by_core[0]:
            expect = dm.lines_for(np.array([rec.address]))[0]
            assert (trace.line_data[rec.line_id] == expect).all()


class TestWritebacks:
    def test_dirty_working_set_produces_memory_writes(self):
        # Write-stream a region several times the L2: dirty lines must
        # eventually be written back to memory.
        n = NIAGARA_SERVER.l2_bytes * 3 // 64
        addrs = np.arange(n, dtype=np.int64) * 64
        s = stream(addrs, writes=np.ones(n, dtype=bool))
        trace = filter_through_hierarchy([s], NIAGARA_SERVER, model())
        assert trace.writes > n // 4

    def test_clean_streaming_produces_no_writes(self):
        n = 4000
        s = stream(np.arange(n, dtype=np.int64) * 64)
        trace = filter_through_hierarchy([s], NIAGARA_SERVER, model())
        assert trace.writes == 0


class TestCoherenceIntegration:
    def test_shared_line_write_invalidates_other_l1(self):
        a = stream([0, 0], writes=[False, False])
        b = stream([0, 64 * 4096], writes=[True, False])
        trace = filter_through_hierarchy([a, b], NIAGARA_SERVER, model())
        assert trace.stats["mesi_invalidations"] >= 1

    def test_cache_to_cache_transfer_avoids_dram(self):
        # Core 1 reads a line core 0 dirtied: supplied M->S, no DRAM read.
        a = stream([0], writes=[True])
        b = stream([0], writes=[False])
        trace = filter_through_hierarchy([a, b], NIAGARA_SERVER, model())
        assert trace.stats["mesi_dirty_transfers"] >= 1


class TestPrefetchIntegration:
    def test_sequential_stream_generates_prefetch_records(self):
        s = stream(np.arange(3000, dtype=np.int64) * 64)
        trace = filter_through_hierarchy([s], NIAGARA_SERVER, model())
        assert trace.prefetches > 0
        # Prefetch pacing: no prefetch record with a zero gap burst.
        pf_gaps = [
            r.gap for r in trace.records_by_core[0] if r.is_prefetch
        ]
        assert min(pf_gaps) >= NIAGARA_SERVER.prefetcher.spacing

    def test_prefetches_reduce_demand_misses(self):
        s1 = stream(np.arange(3000, dtype=np.int64) * 64)
        with_pf = filter_through_hierarchy([s1], NIAGARA_SERVER, model())
        # Demand misses + prefetches together cover the stream.
        total_lines = 3000 // (64 // 64)
        assert with_pf.demand_reads < total_lines
        assert with_pf.demand_reads + with_pf.prefetches >= total_lines * 0.9


class TestValidation:
    def test_stream_validation(self):
        with pytest.raises(ValueError):
            CoreAccessStream(np.zeros(3), np.zeros(2, dtype=bool), 1.0)
        with pytest.raises(ValueError):
            CoreAccessStream(np.zeros(2), np.zeros(2, dtype=bool), -1.0)
        with pytest.raises(ValueError):
            CoreAccessStream(np.zeros(2), np.zeros(2, dtype=bool), 1.0,
                             dependent_fraction=1.5)
        with pytest.raises(ValueError):
            CoreAccessStream(np.zeros(2), np.zeros(2, dtype=bool), 1.0,
                             burst_lines=0)

    def test_too_many_streams_rejected(self):
        streams = [stream([0]) for _ in range(NIAGARA_SERVER.cores + 1)]
        with pytest.raises(ValueError):
            filter_through_hierarchy(streams, NIAGARA_SERVER, model())

    def test_burstiness_banks_gaps(self):
        addrs = np.arange(0, 40, dtype=np.int64) * 4096
        bursty = stream(addrs, ipa=20.0, burst_lines=4)
        trace = filter_through_hierarchy([bursty], NIAGARA_SERVER, model())
        demand_gaps = [
            r.gap for r in trace.records_by_core[0]
            if not r.is_prefetch and not r.is_write
        ]
        zeros = sum(1 for g in demand_gaps if g == 0)
        assert zeros >= len(demand_gaps) // 2  # most gaps deferred
