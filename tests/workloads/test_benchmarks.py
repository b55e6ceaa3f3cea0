"""Tests for the Table 3 benchmark suite."""

import numpy as np
import pytest

from repro.system import NIAGARA_SERVER
from repro.workloads import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    MEMORY_INTENSIVE,
    build_trace,
    clear_trace_cache,
    get_benchmark,
)

SMALL = 800  # accesses per core for quick structural checks


class TestSuiteStructure:
    def test_all_eleven_present(self):
        assert len(BENCHMARK_ORDER) == 11
        assert set(BENCHMARK_ORDER) == set(BENCHMARKS)

    def test_table3_suites(self):
        assert get_benchmark("GUPS").suite == "HPCC"
        assert get_benchmark("CG").suite == "NAS OpenMP"
        assert get_benchmark("SCALPARC").suite == "NuMineBench"
        assert get_benchmark("MM").suite == "Phoenix"
        assert get_benchmark("SWIM").suite == "SPEC OpenMP"
        assert get_benchmark("FFT").suite == "SPLASH-2"

    def test_memory_intensive_subset(self):
        assert set(MEMORY_INTENSIVE) <= set(BENCHMARK_ORDER)
        assert "MM" not in MEMORY_INTENSIVE
        assert "GUPS" in MEMORY_INTENSIVE

    def test_lookup_case_insensitive(self):
        assert get_benchmark("gups") is get_benchmark("GUPS")
        with pytest.raises(KeyError):
            get_benchmark("nosuch")


class TestStreams:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_every_benchmark_builds(self, name):
        spec = get_benchmark(name)
        streams = spec.streams(NIAGARA_SERVER, seed=0, accesses_per_core=200)
        assert len(streams) == NIAGARA_SERVER.cores
        for s in streams:
            assert len(s) > 0
            assert (s.addresses >= 0).all()

    def test_streams_deterministic_by_seed(self):
        spec = get_benchmark("CG")
        a = spec.streams(NIAGARA_SERVER, seed=5, accesses_per_core=200)
        b = spec.streams(NIAGARA_SERVER, seed=5, accesses_per_core=200)
        c = spec.streams(NIAGARA_SERVER, seed=6, accesses_per_core=200)
        assert (a[0].addresses == b[0].addresses).all()
        assert not (a[0].addresses == c[0].addresses).all()

    def test_cores_get_distinct_chunks(self):
        spec = get_benchmark("SWIM")
        streams = spec.streams(NIAGARA_SERVER, seed=0, accesses_per_core=200)
        assert streams[0].addresses[0] != streams[1].addresses[0]


class TestTraces:
    def test_trace_cached(self):
        clear_trace_cache()
        a = build_trace("MM", NIAGARA_SERVER, accesses_per_core=SMALL)
        b = build_trace("MM", NIAGARA_SERVER, accesses_per_core=SMALL)
        assert a is b
        clear_trace_cache()
        c = build_trace("MM", NIAGARA_SERVER, accesses_per_core=SMALL)
        assert c is not a

    def test_trace_cache_keeps_the_most_recent_entries(self):
        from repro.workloads import benchmarks

        def build(seed):
            return build_trace("MM", NIAGARA_SERVER, seed=seed,
                               accesses_per_core=64)

        limit = benchmarks.TRACE_CACHE_ENTRIES
        clear_trace_cache()
        try:
            built = [build(seed) for seed in range(limit)]
            assert build(0) is built[0]  # seed 0 is now the most recent
            newest = build(limit)  # limit + 1 distinct traces so far
            assert len(benchmarks._TRACE_CACHE) == limit
            assert build(0) is built[0]
            assert build(limit) is newest
            for seed in range(2, limit):
                assert build(seed) is built[seed]
            assert build(1) is not built[1]  # the least recent went
        finally:
            clear_trace_cache()

    def test_trace_has_payloads(self):
        trace = build_trace("GUPS", NIAGARA_SERVER, accesses_per_core=SMALL)
        assert trace.line_data.shape == (trace.total_records, 64)
        assert trace.line_data.dtype == np.uint8

    def test_gups_has_writes(self):
        # Updates dirty random lines; once the L1/L2 fill, the dirty
        # victims stream back to memory (needs enough accesses to fill).
        trace = build_trace("GUPS", NIAGARA_SERVER, accesses_per_core=4000)
        assert trace.writes > 0

    def test_strmatch_is_read_dominated(self):
        # Warm-cache writebacks exist, but reads+prefetches dominate by
        # far (the file is scanned, barely written).
        trace = build_trace("STRMATCH", NIAGARA_SERVER,
                            accesses_per_core=SMALL)
        assert trace.writes < 0.35 * trace.total_records
        assert trace.demand_reads + trace.prefetches > 2 * trace.writes

    def test_mm_misses_less_than_gups(self):
        mm = build_trace("MM", NIAGARA_SERVER, accesses_per_core=SMALL)
        gups = build_trace("GUPS", NIAGARA_SERVER, accesses_per_core=SMALL)
        # Per CPU access, the blocked kernel touches memory far less.
        mm_rate = mm.total_records / mm.cpu_accesses
        gups_rate = gups.total_records / gups.cpu_accesses
        assert mm_rate < 0.5 * gups_rate

    def test_access_scale_respected(self):
        spec = get_benchmark("FFT")
        trace = build_trace("FFT", NIAGARA_SERVER, accesses_per_core=1000)
        expect = max(64, int(1000 * spec.access_scale))
        assert trace.cpu_accesses == expect * NIAGARA_SERVER.cores


class TestDataCharacter:
    def test_gups_data_is_integer_sparse(self):
        dm = get_benchmark("GUPS").data_model()
        lines = dm.lines_for(np.arange(2000, dtype=np.int64) * 64)
        zero_byte_share = (lines == 0).mean()
        assert zero_byte_share > 0.5

    def test_strmatch_data_is_texty(self):
        dm = get_benchmark("STRMATCH").data_model()
        lines = dm.lines_for(np.arange(2000, dtype=np.int64) * 64)
        printable = ((lines >= 0x20) & (lines <= 0x7E)).mean()
        assert printable > 0.35

    def test_fp_benchmarks_share_exponents(self):
        dm = get_benchmark("SWIM").data_model()
        lines = dm.lines_for(np.arange(500, dtype=np.int64) * 64)
        words = lines.reshape(-1, 8, 8)
        fp_lines = words[np.isin(words[:, 0, 7], (0x3F, 0x40))]
        assert len(fp_lines) > 100
        assert (fp_lines[:, :, 7] == fp_lines[:, 0:1, 7]).all()
