"""The campaign-wide zero-table cache: correct, bounded, and bypassable."""

import numpy as np
import pytest

from repro.coding.pipeline import line_zeros, precompute_line_zeros
from repro.coding.zerocache import (
    ZeroTableCache,
    global_cache,
    lines_digest,
    reset_global_cache,
)


@pytest.fixture
def lines():
    rng = np.random.default_rng(42)
    return rng.integers(0, 256, size=(128, 64), dtype=np.uint8)


@pytest.fixture(autouse=True)
def _clean_global_cache():
    reset_global_cache()
    yield
    reset_global_cache()


class TestDigest:
    def test_content_addressed(self, lines):
        assert lines_digest(lines) == lines_digest(lines.copy())

    def test_any_byte_changes_the_digest(self, lines):
        tweaked = lines.copy()
        tweaked[17, 3] ^= 1
        assert lines_digest(tweaked) != lines_digest(lines)

    def test_shape_is_part_of_the_digest(self, lines):
        assert lines_digest(lines[:64]) != lines_digest(lines)


class TestCacheBehaviour:
    def test_hit_returns_the_same_table(self, lines):
        first = precompute_line_zeros(lines, ("dbi", "milc"))
        second = precompute_line_zeros(lines, ("dbi", "milc"))
        assert first["dbi"] is second["dbi"]
        assert first["milc"] is second["milc"]
        stats = global_cache().stats()
        assert stats == {"entries": 2, "hits": 2, "misses": 2}

    def test_cached_tables_match_uncached(self, lines):
        cached = precompute_line_zeros(lines, ("dbi", "3lwc"))
        plain = precompute_line_zeros(lines, ("dbi", "3lwc"), cache=False)
        for scheme in ("dbi", "3lwc"):
            assert np.array_equal(cached[scheme], plain[scheme])
            assert np.array_equal(cached[scheme], line_zeros(scheme, lines))

    def test_cached_tables_are_read_only(self, lines):
        table = precompute_line_zeros(lines, ("dbi",))["dbi"]
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0

    def test_supplied_digest_is_honoured(self, lines):
        digest = lines_digest(lines)
        precompute_line_zeros(lines, ("dbi",), digest=digest)
        cache = global_cache()
        assert cache.get(digest, "dbi") is not None

    def test_different_data_does_not_collide(self, lines):
        other = (lines ^ 0xFF).astype(np.uint8)
        a = precompute_line_zeros(lines, ("dbi",))["dbi"]
        b = precompute_line_zeros(other, ("dbi",))["dbi"]
        assert not np.array_equal(a, b)
        assert global_cache().stats()["entries"] == 2

    def test_private_cache_instance(self, lines):
        cache = ZeroTableCache()
        precompute_line_zeros(lines, ("dbi",), cache=cache)
        precompute_line_zeros(lines, ("dbi",), cache=cache)
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        # The global cache never saw this workload.
        assert global_cache().stats()["entries"] == 0

    def test_lru_bound(self):
        cache = ZeroTableCache(max_entries=2)
        rng = np.random.default_rng(0)
        tables = [rng.integers(0, 9, size=8) for _ in range(3)]
        for i, t in enumerate(tables):
            cache.put(f"digest{i}", "dbi", t)
        assert len(cache) == 2
        assert cache.get("digest0", "dbi") is None  # evicted, oldest
        assert cache.get("digest2", "dbi") is not None

    def test_uncached_path_bypasses_the_global_cache(self, lines):
        first = precompute_line_zeros(lines, ("dbi",), cache=False)
        second = precompute_line_zeros(lines, ("dbi",), cache=False)
        assert first["dbi"] is not second["dbi"]
        assert np.array_equal(first["dbi"], second["dbi"])
        assert global_cache().stats() == {"entries": 0, "hits": 0,
                                          "misses": 0}


class TestTraceIntegration:
    def test_trace_digest_is_cached_and_stable(self):
        from repro.workloads.trace import MemoryTrace, TraceRecord

        lines = np.zeros((2, 64), dtype=np.uint8)
        records = [
            TraceRecord(core=0, gap=0, address=0, is_write=False, line_id=0),
            TraceRecord(core=0, gap=1, address=64, is_write=True, line_id=1),
        ]
        trace = MemoryTrace(
            name="t", records_by_core=[records], line_data=lines
        )
        assert trace.line_digest == lines_digest(lines)
        assert trace.line_digest is trace.line_digest  # memoised

    def test_same_trace_shares_tables_across_policies(self):
        # The campaign pattern: one trace replayed under many policies
        # must encode each (trace, scheme) pair exactly once.
        from repro.system.machine import NIAGARA_SERVER
        from repro.workloads.benchmarks import build_trace

        trace = build_trace("GUPS", NIAGARA_SERVER, accesses_per_core=50)
        schemes = ("dbi", "milc")
        for _ in range(3):  # three "policies" replaying the same trace
            precompute_line_zeros(
                trace.line_data, schemes, digest=trace.line_digest
            )
        stats = global_cache().stats()
        assert stats["misses"] == len(schemes)
        assert stats["hits"] == 2 * len(schemes)
