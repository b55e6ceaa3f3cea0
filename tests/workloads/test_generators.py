"""Tests for the address-stream and arrival-process primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generators import (
    ARRIVAL_KINDS,
    arrival_gaps,
    bursty_gaps,
    gather_stream,
    interleave,
    poisson_gaps,
    random_access,
    sequential_stream,
    strided_sweep,
    tile_reuse,
    uniform_gaps,
    update_pairs,
)


def rng():
    return np.random.default_rng(22)


class TestSequential:
    def test_monotone_with_wrap(self):
        addr, _ = sequential_stream(rng(), 100, base=1000,
                                    span_bytes=512, start_offset=0)
        assert addr[0] == 1000
        deltas = np.diff(addr)
        assert ((deltas == 8) | (deltas == 8 - 512)).all()

    def test_stays_in_span(self):
        addr, _ = sequential_stream(rng(), 500, base=4096, span_bytes=1024)
        assert (addr >= 4096).all() and (addr < 4096 + 1024).all()

    def test_write_fraction(self):
        _, wr = sequential_stream(rng(), 4000, 0, 1 << 20,
                                  write_fraction=0.25)
        assert 0.2 < wr.mean() < 0.3

    def test_empty(self):
        addr, wr = sequential_stream(rng(), 0, 0, 1024)
        assert len(addr) == 0 and len(wr) == 0


class TestRandomAccess:
    def test_alignment_and_span(self):
        addr, _ = random_access(rng(), 1000, base=64, span_bytes=8192)
        assert (addr % 8 == 0).all()
        assert (addr >= 64).all() and (addr < 64 + 8192).all()

    def test_spreads_widely(self):
        addr, _ = random_access(rng(), 2000, 0, 1 << 24)
        assert len(np.unique(addr // 4096)) > 100


class TestStrided:
    def test_constant_stride(self):
        addr, _ = strided_sweep(rng(), 50, 0, 1 << 20, stride_bytes=256)
        assert (np.diff(addr) == 256).all()

    def test_small_stride_is_element_step(self):
        addr, _ = strided_sweep(rng(), 10, 0, 1 << 20, stride_bytes=8)
        assert (np.diff(addr) == 8).all()


class TestGather:
    def test_mixes_two_regions(self):
        addr, _ = gather_stream(
            rng(), 1000, seq_base=0, seq_span=1 << 20,
            gather_base=1 << 30, gather_span=1 << 20, gather_ratio=0.5,
        )
        seq = (addr < (1 << 20)).sum()
        gathered = (addr >= (1 << 30)).sum()
        assert seq + gathered == 1000
        assert 350 < gathered < 650


class TestTileReuse:
    def test_tile_locality(self):
        addr, _ = tile_reuse(rng(), 2000, 0, 1 << 22,
                             tile_bytes=4096, reuse_factor=4)
        tiles = addr // 4096
        # Consecutive accesses stay in one tile for long stretches.
        changes = (np.diff(tiles) != 0).sum()
        assert changes < 20

    def test_exact_count(self):
        addr, wr = tile_reuse(rng(), 777, 0, 1 << 22, 4096, 2)
        assert len(addr) == len(wr) == 777


class TestUpdatePairs:
    def test_read_write_alternation(self):
        addr, wr = update_pairs(rng(), 100, 0, 1 << 20)
        assert (addr[0::2] == addr[1::2]).all()  # same slot
        assert not wr[0::2].any()  # reads first
        assert wr[1::2].all()  # then writes


class TestInterleave:
    def test_preserves_all_accesses(self):
        a = (np.arange(10, dtype=np.int64), np.zeros(10, dtype=bool))
        b = (np.arange(100, 105, dtype=np.int64), np.ones(5, dtype=bool))
        addr, wr = interleave([a, b], chunk=3)
        assert len(addr) == 15
        assert sorted(addr.tolist()) == sorted(
            a[0].tolist() + b[0].tolist()
        )
        assert wr.sum() == 5

    def test_round_robin_order(self):
        a = (np.array([1, 2, 3, 4], dtype=np.int64), np.zeros(4, dtype=bool))
        b = (np.array([10, 20], dtype=np.int64), np.zeros(2, dtype=bool))
        addr, _ = interleave([a, b], chunk=2)
        assert addr.tolist() == [1, 2, 10, 20, 3, 4]

    def test_empty_streams(self):
        addr, wr = interleave([])
        assert len(addr) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 40), max_size=6),
        chunk=st.integers(1, 17),
        wide=st.booleans(),
    )
    def test_matches_reference_loop(self, lengths, chunk, wide):
        """The closed form equals the chunk-by-chunk round-robin loop it
        replaced: same elements, order and dtypes."""
        gen = np.random.default_rng(sum(lengths) * 31 + chunk)
        dtype = np.int64 if wide else np.int32
        streams = [
            (gen.integers(0, 1 << 30, n).astype(dtype), gen.random(n) < 0.3)
            for n in lengths
        ]
        addr, wr = interleave(streams, chunk=chunk)
        want_addr, want_wr = _reference_interleave(streams, chunk)
        assert addr.dtype == want_addr.dtype and wr.dtype == want_wr.dtype
        assert addr.tolist() == want_addr.tolist()
        assert wr.tolist() == want_wr.tolist()


def _reference_interleave(streams, chunk):
    """The round-robin merge loop ``interleave`` computes in closed form."""
    streams = [s for s in streams if len(s[0])]
    if not streams:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    addr_parts, wr_parts = [], []
    positions = [0] * len(streams)
    live = list(range(len(streams)))
    while live:
        nxt = []
        for s in live:
            a, w = streams[s]
            start = positions[s]
            stop = min(start + chunk, len(a))
            addr_parts.append(a[start:stop])
            wr_parts.append(w[start:stop])
            positions[s] = stop
            if stop < len(a):
                nxt.append(s)
        live = nxt
    return np.concatenate(addr_parts), np.concatenate(wr_parts)


class TestArrivalGaps:
    def test_means_track_mean_gap(self):
        for kind in ARRIVAL_KINDS:
            gaps = arrival_gaps(rng(), 20000, kind, mean_gap=40.0)
            assert gaps.dtype == np.int64
            assert (gaps >= 0).all()
            assert 34 < gaps.mean() < 46, kind

    def test_zero_gap_means_back_to_back(self):
        for kind in ARRIVAL_KINDS:
            assert (arrival_gaps(rng(), 100, kind, mean_gap=0.0) == 0).all()

    def test_uniform_bounded(self):
        gaps = uniform_gaps(rng(), 5000, mean_gap=30.0)
        assert gaps.max() <= 60

    def test_bursty_is_burstier_than_poisson(self):
        # Bursty arrivals concentrate think time on burst heads, so the
        # fraction of back-to-back (tiny-gap) records must be higher.
        pois = poisson_gaps(rng(), 20000, mean_gap=40.0)
        burst = bursty_gaps(rng(), 20000, mean_gap=40.0, burst=8)
        assert (burst <= 1).mean() > (pois <= 1).mean() + 0.2

    def test_unknown_kind_rejected(self):
        try:
            arrival_gaps(rng(), 10, "fractal", mean_gap=10.0)
        except ValueError as exc:
            assert "fractal" in str(exc)
        else:
            raise AssertionError("unknown arrival kind accepted")

    @given(
        kind=st.sampled_from(ARRIVAL_KINDS),
        seed=st.integers(0, 2**32 - 1),
        mean_gap=st.floats(0.0, 500.0),
        count=st.integers(1, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_seed_identical_gaps(self, kind, seed, mean_gap, count):
        draw = lambda s: arrival_gaps(
            np.random.default_rng(s), count, kind, mean_gap, burst=6
        )
        assert (draw(seed) == draw(seed)).all()

    @given(seed=st.integers(0, 2**32 - 2))
    @settings(max_examples=20, deadline=None)
    def test_neighbouring_seeds_diverge(self, seed):
        a = poisson_gaps(np.random.default_rng(seed), 500, 40.0)
        b = poisson_gaps(np.random.default_rng(seed + 1), 500, 40.0)
        assert (a != b).any()
