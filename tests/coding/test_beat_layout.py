"""Tests for the Figure 12 beat layout and the raw (uncoded) scheme."""

import numpy as np

from repro.coding import (
    DBICode,
    MiLCCode,
    line_zeros,
    raw_line_zeros,
    scheme_info,
)
from repro.coding.pipeline import beat_layout


class TestBeatLayout:
    def test_is_a_transpose(self):
        line = np.arange(64, dtype=np.uint8)[None, :]
        beats = beat_layout(line)[0].reshape(8, 8)
        words = line[0].reshape(8, 8)
        assert (beats == words.T).all()

    def test_involution(self):
        rng = np.random.default_rng(31)
        lines = rng.integers(0, 256, size=(20, 64), dtype=np.uint8)
        assert (beat_layout(beat_layout(lines)) == lines).all()

    def test_beat_gathers_same_byte_position(self):
        # Word j has byte p = (j << 4) | p: beat p must hold all eight.
        line = np.array(
            [[(j << 4) | p for p in range(8)] for j in range(8)],
            dtype=np.uint8,
        ).reshape(1, 64)
        beats = beat_layout(line)[0].reshape(8, 8)
        for p in range(8):
            assert (beats[p] == [(j << 4) | p for j in range(8)]).all()

    def test_milc_sees_cross_word_correlation(self):
        # Eight words sharing an exponent byte: the layout is what lets
        # MiLC's row-XOR collapse that byte position.
        rng = np.random.default_rng(32)
        line = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        line[:, 7] = 0x40  # shared high byte
        flat = line.reshape(1, 64)
        with_layout = MiLCCode().count_zeros_bytes(beat_layout(flat))[0]
        without = MiLCCode().count_zeros_bytes(flat)[0]
        assert with_layout <= without


class TestRawScheme:
    def test_registered_with_bl8(self):
        assert scheme_info("raw").burst_length == 8
        assert scheme_info("raw").extra_latency == 0

    def test_counts_plain_zeros(self):
        rng = np.random.default_rng(33)
        lines = rng.integers(0, 256, size=(10, 64), dtype=np.uint8)
        assert (line_zeros("raw", lines) == raw_line_zeros(lines)).all()

    def test_dbi_never_worse_than_raw(self):
        # DBI bounds zeros at 4/byte group; raw can hit 8.  On sparse
        # data DBI is strictly better — the x4-vs-x8 study's premise.
        sparse = np.zeros((5, 64), dtype=np.uint8)
        assert (
            DBICode().count_zeros_bytes(sparse)
            < raw_line_zeros(sparse)
        ).all()
        rng = np.random.default_rng(34)
        lines = rng.integers(0, 256, size=(50, 64), dtype=np.uint8)
        assert (
            line_zeros("dbi", lines) <= raw_line_zeros(lines) + 64
        ).all()
