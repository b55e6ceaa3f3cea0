"""Registry invariants every registered codec must satisfy.

These are the structural laws the paper's Table/Figure arithmetic rests
on: the coded line must physically fit the pins x beats it claims
(Section 4.4), DDR bus occupancy is two beats per clock, encode/decode
must round-trip, and the fast ``count_zeros``/``line_zeros`` paths must
agree with actually encoding the data.  Because the checks run over
*whatever is registered*, a codec added later (even by an example
script) is held to the same laws automatically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import registry
from repro.coding.bitops import bytes_to_bits
from repro.coding.registry import (
    LINE_BYTES,
    CodecInfo,
    NoCodecError,
    beat_layout,
    register_burst_format,
    register_codec,
    scheme_info,
    unregister_scheme,
)


def _codec_entries():
    return [
        registry.scheme_info(name) for name in registry.codec_schemes()
    ]


class TestCapacityInvariants:
    def test_code_bits_fit_pins_times_burst(self):
        # A 64-byte line is (512 / data_bits) codewords of code_bits
        # bits; the transmitted burst offers pins x burst_length bit
        # slots.  dbi: 64x9 = 576 = 72x8 exactly; 3lwc: 64x17 = 1088
        # <= 72x16 = 1152 (64 pad bits, sent as 1s).
        for info in _codec_entries():
            codec = info.codec
            blocks_per_line = (LINE_BYTES * 8) // codec.data_bits
            line_code_bits = blocks_per_line * codec.code_bits
            capacity = info.pins * info.burst_length
            assert line_code_bits <= capacity, (
                f"{info.name}: {line_code_bits} code bits do not fit "
                f"{info.pins} pins x BL{info.burst_length} = {capacity}"
            )

    def test_bus_cycles_ddr_math(self):
        # Double data rate: two beats per DRAM clock, odd lengths round
        # up (the bus is reserved in whole clocks).
        for name in registry.scheme_names():
            info = scheme_info(name)
            assert info.bus_cycles == (info.burst_length + 1) // 2

    def test_every_codec_divides_the_line(self):
        for info in _codec_entries():
            assert (LINE_BYTES * 8) % info.codec.data_bits == 0


class TestRoundTripsAndCounts:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_encode_decode_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 256, size=(4, LINE_BYTES), dtype=np.uint8)
        for info in _codec_entries():
            codec = info.codec
            arranged = (
                beat_layout(lines) if info.layout == "beat" else lines
            )
            bits = bytes_to_bits(arranged)
            blocks = bits.reshape(bits.shape[0], -1, codec.data_bits)
            decoded = codec.decode_blocks(codec.encode_blocks(blocks))
            assert (decoded == blocks).all(), info.name

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_line_zeros_matches_encoding(self, seed):
        # The vectorised line_zeros path must agree with literally
        # encoding the line and counting 0s — modulo per-codec constant
        # overhead bits (3lwc's 64 pad 1-bits add no zeros; raw has no
        # codec).  count_zeros is defined as zeros in the *codeword*,
        # so the two must match exactly.
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 256, size=(4, LINE_BYTES), dtype=np.uint8)
        for info in _codec_entries():
            codec = info.codec
            arranged = (
                beat_layout(lines) if info.layout == "beat" else lines
            )
            bits = bytes_to_bits(arranged)
            blocks = bits.reshape(bits.shape[0], -1, codec.data_bits)
            encoded = codec.encode_blocks(blocks)
            literal = (
                (encoded == 0).sum(axis=(1, 2)).astype(np.int64)
            )
            fast = info.line_zeros(lines)
            assert (fast == literal).all(), info.name

    def test_generic_fallback_counts_without_fast_path(self):
        # A codec with no count_zeros_bytes override goes through the
        # bytes_to_bits fallback; an identity byte code makes its
        # correct answer obvious (the raw popcount).
        from repro.coding.base import CodingScheme

        class _PlainByte(CodingScheme):
            name = "_plain"
            data_bits = 8
            code_bits = 8

            def encode_blocks(self, blocks):
                return np.asarray(blocks, dtype=np.uint8)

            def decode_blocks(self, blocks):
                return np.asarray(blocks, dtype=np.uint8)

        register_codec("_tmp_plain", burst_length=8, extra_latency=0)(
            _PlainByte
        )
        try:
            rng = np.random.default_rng(3)
            lines = rng.integers(0, 256, size=(6, LINE_BYTES),
                                 dtype=np.uint8)
            bits = np.unpackbits(lines, axis=1)
            got = scheme_info("_tmp_plain").line_zeros(lines)
            assert (got == 512 - bits.sum(axis=1)).all()
        finally:
            unregister_scheme("_tmp_plain")

    def test_raw_count_fn_path(self):
        rng = np.random.default_rng(7)
        lines = rng.integers(0, 256, size=(10, LINE_BYTES), dtype=np.uint8)
        info = scheme_info("raw")
        assert info.has_codec and info.factory is None
        bits = np.unpackbits(lines, axis=1)
        assert (info.line_zeros(lines) == 512 - bits.sum(axis=1)).all()


class TestRegistrationRules:
    def test_no_codec_error_names_the_scheme(self):
        for name in ("bl12", "bl14"):
            info = scheme_info(name)
            assert not info.has_codec
            with pytest.raises(NoCodecError, match=name):
                info.codec
            with pytest.raises(NoCodecError, match=name):
                info.line_zeros(np.zeros((1, LINE_BYTES), dtype=np.uint8))

    def test_no_codec_error_is_a_key_error(self):
        # Legacy callers catch KeyError; the refined error must still be
        # one.
        assert issubclass(NoCodecError, KeyError)

    def test_unknown_scheme_lists_known_set(self):
        with pytest.raises(KeyError, match="huffman"):
            scheme_info("huffman")

    def test_conflicting_reregistration_rejected(self):
        register_burst_format("_tmp_scheme", burst_length=9,
                              extra_latency=1)
        try:
            with pytest.raises(ValueError, match="_tmp_scheme"):
                register_burst_format("_tmp_scheme", burst_length=11,
                                      extra_latency=1)
            # Idempotent re-registration (module reload) is tolerated.
            register_burst_format("_tmp_scheme", burst_length=9,
                                  extra_latency=1)
        finally:
            unregister_scheme("_tmp_scheme")

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError, match="layout"):
            register_codec("_tmp_bad", burst_length=8, extra_latency=0,
                           layout="diagonal")

    def test_codec_is_a_lazy_singleton(self):
        calls = []

        @register_codec("_tmp_lazy", burst_length=8, extra_latency=0)
        def _factory():
            calls.append(1)
            return object()

        try:
            info = scheme_info("_tmp_lazy")
            assert calls == []  # nothing built at registration time
            assert info.codec is info.codec
            assert calls == [1]
        finally:
            unregister_scheme("_tmp_lazy")


class TestCodecInfoMetadata:
    def test_layouts_match_figure_12(self):
        # MiLC and CAFO consume bus-beat squares; DBI and the LWC
        # family consume cache-line byte order.
        assert scheme_info("milc").layout == "beat"
        assert scheme_info("cafo2").layout == "beat"
        assert scheme_info("cafo4").layout == "beat"
        assert scheme_info("dbi").layout == "line"
        assert scheme_info("3lwc").layout == "line"
        assert scheme_info("lwc12").layout == "line"

    def test_pin_widths(self):
        # DBI and the (8,17) 3-LWC borrow the DBI pins (72 wide); the
        # 64-pin codes do not.
        assert scheme_info("dbi").pins == 72
        assert scheme_info("3lwc").pins == 72
        assert scheme_info("milc").pins == 64
        assert scheme_info("lwc12").pins == 64

    def test_every_entry_has_a_description(self):
        for name in registry.scheme_names():
            assert scheme_info(name).description, name

    def test_real_schemes_are_the_energy_set(self):
        real = set(registry.real_schemes())
        assert real == {"raw", "dbi", "milc", "3lwc", "lwc12",
                        "cafo2", "cafo4"}
        assert set(registry.scheme_names()) - real == {"bl12", "bl14"}
