"""Tests for the set-associative cache model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system import Cache
from tests.warmup_oracle import eager_warm


class TestBasics:
    def test_miss_then_hit(self):
        cache = Cache(1024, 2)
        assert not cache.access(0, False).hit
        assert cache.access(0, False).hit

    def test_same_line_different_offsets_hit(self):
        cache = Cache(1024, 2)
        cache.access(128, False)
        assert cache.access(128 + 63, False).hit
        assert not cache.access(128 + 64, False).hit

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache(1000, 3)  # does not divide into sets
        with pytest.raises(ValueError):
            Cache(192, 1)  # 3 sets: not a power of two

    def test_miss_rate(self):
        cache = Cache(1024, 2)
        cache.access(0, False)
        cache.access(0, False)
        assert cache.miss_rate == pytest.approx(0.5)


class TestEviction:
    def test_lru_victim(self):
        cache = Cache(2 * 64, 2)  # one set, two ways
        cache.access(0, False)
        cache.access(1 << 12, False)
        cache.access(0, False)  # refresh line 0
        cache.access(2 << 12, False)  # evicts 1<<12, not 0
        assert cache.contains(0)
        assert not cache.contains(1 << 12)

    def test_dirty_eviction_reports_writeback(self):
        cache = Cache(2 * 64, 2)
        cache.access(0, True)
        cache.access(1 << 12, False)
        result = cache.access(2 << 12, False)
        assert result.writeback == 0
        assert cache.writebacks == 1

    def test_clean_eviction_silent(self):
        cache = Cache(2 * 64, 2)
        cache.access(0, False)
        cache.access(1 << 12, False)
        result = cache.access(2 << 12, False)
        assert result.writeback is None

    def test_write_hit_marks_dirty(self):
        cache = Cache(2 * 64, 2)
        cache.access(0, False)
        cache.access(0, True)  # hit, now dirty
        cache.access(1 << 12, False)
        result = cache.access(2 << 12, False)
        assert result.writeback == 0


class TestFillAndInvalidate:
    def test_fill_installs_without_counting_demand(self):
        cache = Cache(1024, 2)
        cache.fill(0)
        assert cache.contains(0)
        assert cache.hits == 0 and cache.misses == 0

    def test_fill_existing_merges_dirty(self):
        cache = Cache(1024, 2)
        cache.fill(0, dirty=True)
        cache.fill(0, dirty=False)
        assert cache.invalidate(0)  # still dirty

    def test_invalidate_returns_dirtiness(self):
        cache = Cache(1024, 2)
        cache.access(0, True)
        assert cache.invalidate(0) is True
        assert cache.invalidate(0) is False
        assert not cache.contains(0)

    def test_touch_refreshes_lru(self):
        cache = Cache(2 * 64, 2)
        cache.access(0, False)
        cache.access(1 << 12, False)
        cache.touch(0)
        cache.fill(2 << 12)
        assert cache.contains(0)


class TestProperties:
    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 16),
                    min_size=1, max_size=300))
    def test_capacity_never_exceeded(self, addresses):
        cache = Cache(4096, 4)
        for addr in addresses:
            cache.access(addr, False)
        for ways in cache._sets.values():
            assert len(ways) <= cache.ways

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 14),
                    min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = Cache(2048, 2)
        for addr in addresses:
            cache.access(addr, bool(addr & 1))
        assert cache.hits + cache.misses == len(addresses)

    def test_small_working_set_all_hits_after_warmup(self):
        cache = Cache(32 * 1024, 4)
        lines = np.arange(0, 8 * 1024, 64)
        for addr in lines:
            cache.access(int(addr), False)
        hits_before = cache.hits
        for addr in lines:
            assert cache.access(int(addr), False).hit
        assert cache.hits == hits_before + len(lines)


class TestWarm:
    """``Cache.warm`` leaves exactly what one ``fill`` per line leaves."""

    @settings(max_examples=80, deadline=None)
    @given(
        set_bits=st.integers(min_value=0, max_value=6),
        ways=st.sampled_from([1, 2, 4, 8]),
        line_bytes=st.sampled_from([16, 64]),
        data=st.data(),
    )
    def test_lazy_warm_matches_eager_fills(
        self, set_bits, ways, line_bytes, data
    ):
        num_sets = 1 << set_bits
        # Up to three times the capacity, so many sets receive more than
        # ``ways`` lines and the warm-up must drop the oldest.
        span = st.integers(min_value=0, max_value=3 * num_sets * ways)
        ids = data.draw(st.lists(span, unique=True, max_size=200))
        flags = data.draw(
            st.lists(st.booleans(), min_size=len(ids), max_size=len(ids))
        )
        lines = np.asarray(ids, dtype=np.int64) * line_bytes
        dirty = np.asarray(flags, dtype=bool)
        size = num_sets * ways * line_bytes
        lazy = Cache(size, ways, line_bytes)
        lazy.warm(lines, dirty)
        eager = Cache(size, ways, line_bytes)
        eager_warm(eager, lines, dirty)

        ops = data.draw(st.lists(
            st.tuples(
                st.sampled_from(["access", "fill", "contains"]),
                span, st.booleans(),
            ),
            max_size=100,
        ))
        for op, line_id, flag in ops:
            address = line_id * line_bytes
            if op == "access":
                assert lazy.access(address, flag) == eager.access(
                    address, flag
                )
            elif op == "fill":
                assert lazy.fill(address, flag) == eager.fill(address, flag)
            else:
                assert lazy.contains(address) == eager.contains(address)
        assert (lazy.hits, lazy.misses, lazy.writebacks) == (
            eager.hits, eager.misses, eager.writebacks
        )
        for index in range(num_sets):
            assert list(lazy._sets[index].items()) == list(
                eager._sets[index].items()
            )
