"""Tests for the burst-level coding pipeline."""

import numpy as np
import pytest

from repro.coding import (
    LINE_BYTES,
    codec_for,
    line_zeros,
    precompute_line_zeros,
    raw_line_zeros,
    scheme_info,
    scheme_names,
)


class TestBurstFormats:
    def test_paper_burst_lengths(self):
        # Section 4.4: BL8 baseline, BL10 for MiLC/CAFO, BL16 for 3-LWC;
        # BL12 for the Section 7.5.3 intermediate code.
        assert scheme_info("raw").burst_length == 8
        assert scheme_info("lwc12").burst_length == 12
        assert scheme_info("dbi").burst_length == 8
        assert scheme_info("milc").burst_length == 10
        assert scheme_info("3lwc").burst_length == 16
        assert scheme_info("cafo2").burst_length == 10
        assert scheme_info("cafo4").burst_length == 10

    def test_bus_cycles_are_half_burst(self):
        assert scheme_info("dbi").bus_cycles == 4
        assert scheme_info("milc").bus_cycles == 5
        assert scheme_info("3lwc").bus_cycles == 8

    def test_codec_latency(self):
        assert scheme_info("dbi").extra_latency == 0
        assert scheme_info("milc").extra_latency == 1
        assert scheme_info("cafo4").extra_latency == 4

    def test_scheme_registry(self):
        assert codec_for("milc").name == "milc"
        with pytest.raises(KeyError):
            codec_for("nonsense")


class TestLineZeros:
    def setup_method(self):
        rng = np.random.default_rng(16)
        self.lines = rng.integers(0, 256, size=(40, LINE_BYTES), dtype=np.uint8)

    def test_all_real_schemes_work(self):
        # bl12/bl14 are burst-length placeholders for the Figure 20
        # sweep; every scheme with an actual codec must count zeros.
        for name in ("raw", "dbi", "milc", "3lwc", "lwc12", "cafo2",
                     "cafo4"):
            zeros = line_zeros(name, self.lines)
            assert zeros.shape == (40,)
            assert (zeros >= 0).all()

    def test_sweep_placeholders_have_no_codec(self):
        import pytest as _pytest

        for name in ("bl12", "bl14"):
            assert name in scheme_names()
            with _pytest.raises(KeyError):
                line_zeros(name, self.lines)

    def test_single_line_accepted(self):
        zeros = line_zeros("dbi", self.lines[0])
        assert zeros.shape == (1,)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            line_zeros("dbi", np.zeros((3, 32), dtype=np.uint8))

    def test_unknown_scheme(self):
        with pytest.raises(KeyError):
            line_zeros("huffman", self.lines)

    def test_raw_matches_bit_count(self):
        zeros = raw_line_zeros(self.lines)
        bits = np.unpackbits(self.lines, axis=1)
        assert (zeros == 512 - bits.sum(axis=1)).all()

    def test_bounds_per_scheme(self):
        # Structural upper bounds on zeros per 64-byte line.
        assert line_zeros("dbi", self.lines).max() <= 4 * 64
        assert line_zeros("3lwc", self.lines).max() <= 3 * 64
        assert line_zeros("milc", self.lines).max() <= 80 * 8

    def test_zero_line_ordering(self):
        # On an all-zero line the sparse codes should crush DBI.
        line = np.zeros((1, LINE_BYTES), dtype=np.uint8)
        assert line_zeros("3lwc", line)[0] == 0
        assert line_zeros("milc", line)[0] <= 2
        assert line_zeros("dbi", line)[0] == 64

    def test_precompute_covers_requested_schemes(self):
        table = precompute_line_zeros(self.lines, ("dbi", "milc", "3lwc", "cafo2"))
        assert set(table) == {"dbi", "milc", "3lwc", "cafo2"}
        for name, zeros in table.items():
            assert (zeros == line_zeros(name, self.lines)).all()
