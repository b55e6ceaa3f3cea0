"""Every kernel agrees bit-exactly with its reference in the oracle.

Each registered scheme has one implementation in ``src/``, a vectorised
kernel.  The per-element pure-Python references in
``tests/codec_oracle.py`` were written independently from the kernels
precisely so this suite can catch a bug in either: hypothesis sweeps
arbitrary payloads through both implementations of every registered
scheme and requires bit-exact agreement on every public surface,
including decoding each other's codewords.

Both sides come from the oracle's factory tables, never from the
registry: under ``--codec-oracle`` the registry itself serves the
references, and the kernel would then be compared with itself.

The zero-table tests pin the consequence the campaign layer relies on:
tables (and therefore cache entries and run summaries) are
byte-identical whichever implementation built them, and cache keys do
not mention the implementation at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import pipeline, registry, zerocache
from repro.coding.bitops import bytes_to_bits
from tests.codec_oracle import (
    KERNEL_FACTORIES,
    REFERENCE_FACTORIES,
    reference_codecs,
    swapped_codecs,
)

MAX_EXAMPLES = 25

SCHEMES = sorted(REFERENCE_FACTORIES)

# Arbitrary whole cache lines: 1-4 lines of 64 bytes.
line_payloads = st.binary(min_size=64, max_size=256).map(
    lambda raw: np.frombuffer(
        raw[: len(raw) - len(raw) % 64], dtype=np.uint8
    ).reshape(-1, 64)
).filter(lambda lines: lines.shape[0] >= 1)


def _backends(scheme):
    ref = REFERENCE_FACTORIES[scheme]()
    fast = KERNEL_FACTORIES[scheme]()
    assert type(ref) is not type(fast), (
        f"{scheme}: the reference resolves to the kernel's class"
    )
    return ref, fast


def _blocks(lines, data_bits):
    return bytes_to_bits(lines).reshape(-1, data_bits)


def test_every_codec_has_a_reference():
    # A codec registered without a reference fails here, not silently.
    assert sorted(REFERENCE_FACTORIES) == sorted(registry.codec_schemes())


@pytest.mark.parametrize("scheme", SCHEMES)
class TestBackendsAgree:
    @given(lines=line_payloads)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_encode_and_counts_bit_exact(self, scheme, lines):
        ref, fast = _backends(scheme)
        blocks = _blocks(lines, fast.data_bits)

        ref_words = ref.encode_blocks(blocks)
        fast_words = fast.encode_blocks(blocks)
        assert np.array_equal(ref_words, fast_words)
        assert np.array_equal(
            ref.count_zeros(blocks), fast.count_zeros(blocks)
        )
        assert np.array_equal(
            ref.count_zeros_bytes(lines), fast.count_zeros_bytes(lines)
        )
        assert np.array_equal(
            ref.encode_lines(lines), fast.encode_lines(lines)
        )
        assert np.array_equal(ref.line_zeros(lines), fast.line_zeros(lines))

    @given(lines=line_payloads)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_cross_decode_round_trips(self, scheme, lines):
        # Each implementation must decode the *other's* codewords: same
        # code, not merely two self-consistent codes.
        ref, fast = _backends(scheme)
        blocks = _blocks(lines, fast.data_bits)
        assert np.array_equal(
            ref.decode_blocks(fast.encode_blocks(blocks)), blocks
        )
        assert np.array_equal(
            fast.decode_blocks(ref.encode_blocks(blocks)), blocks
        )

    def test_encode_trace_matches_across_impls(self, scheme):
        rng = np.random.default_rng(2015)
        lines = rng.integers(0, 256, size=(16, 64), dtype=np.uint8)
        with reference_codecs():
            ref_bits = pipeline.encode_trace(scheme, lines)
        with swapped_codecs(KERNEL_FACTORIES):
            fast_bits = pipeline.encode_trace(scheme, lines)
        assert np.array_equal(ref_bits, fast_bits)


class TestZeroTablesImplIndependent:
    def _lines(self):
        rng = np.random.default_rng(80)
        return rng.integers(0, 256, size=(32, 64), dtype=np.uint8)

    def test_tables_byte_identical_across_impls(self):
        lines = self._lines()
        tables = {}
        for impl, factories in (("reference", REFERENCE_FACTORIES),
                                ("kernel", KERNEL_FACTORIES)):
            with swapped_codecs(factories):
                tables[impl] = pipeline.precompute_line_zeros(
                    lines, tuple(SCHEMES), cache=False
                )
        for scheme in SCHEMES:
            ref_t, fast_t = tables["reference"][scheme], tables["kernel"][scheme]
            assert ref_t.dtype == fast_t.dtype
            assert ref_t.tobytes() == fast_t.tobytes()

    def test_cache_keys_do_not_mention_the_backend(self):
        # Populate the cache under one implementation, read it under the
        # other: the second precompute must be pure hits (the same
        # read-only array objects), proving keys are (digest, scheme).
        lines = self._lines()
        cache = zerocache.ZeroTableCache()
        digest = zerocache.lines_digest(lines)

        with reference_codecs():
            first = pipeline.precompute_line_zeros(
                lines, ("dbi", "milc"), digest=digest, cache=cache
            )
        with swapped_codecs(KERNEL_FACTORIES):
            second = pipeline.precompute_line_zeros(
                lines, ("dbi", "milc"), digest=digest, cache=cache
            )
        for scheme in ("dbi", "milc"):
            assert second[scheme] is first[scheme]


def _is_reference(scheme, codec):
    return type(codec) is type(REFERENCE_FACTORIES[scheme]())


class TestReferenceCodecs:
    def test_block_serves_the_references(self):
        with reference_codecs():
            for scheme in SCHEMES:
                assert _is_reference(scheme, registry.codec_for(scheme))

    def test_block_restores_the_same_instances(self):
        before = {s: registry.codec_for(s) for s in SCHEMES}
        with reference_codecs():
            inside = {s: registry.codec_for(s) for s in SCHEMES}
        for scheme in SCHEMES:
            assert registry.codec_for(scheme) is before[scheme]
            assert inside[scheme] is not before[scheme]

    def test_global_zero_cache_is_empty_on_entry_and_exit(self):
        lines = np.arange(64 * 4, dtype=np.uint8).reshape(4, 64)
        cache = zerocache.global_cache()
        zerocache.reset_global_cache()
        pipeline.precompute_line_zeros(lines, ("dbi",))
        assert len(cache) == 1
        with reference_codecs():
            assert len(cache) == 0
            pipeline.precompute_line_zeros(lines, ("dbi",))
            assert len(cache) == 1
        assert len(cache) == 0

    def test_oracle_leg_serves_every_reference(self, request):
        # The CI oracle leg must not run the kernels silently.
        if not request.config.getoption("--codec-oracle"):
            pytest.skip("only meaningful under --codec-oracle")
        for scheme in registry.codec_schemes():
            assert _is_reference(scheme, registry.codec_for(scheme)), scheme
