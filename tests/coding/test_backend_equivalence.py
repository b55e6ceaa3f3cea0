"""Backends are interchangeable: reference and numpy agree bit-exactly.

The backend slot (``repro.coding.registry``) only works if every
implementation of a scheme is indistinguishable from the outside —
same codewords, same zero counts, same decodes.  The pure-Python
oracle in ``repro.coding.reference`` was written independently from
the vectorised kernels precisely so this suite can catch a bug in
either: hypothesis sweeps arbitrary payloads through both backends of
every registered scheme and requires bit-exact agreement on every
public surface, including decoding each other's codewords.

The zero-table cache tests pin the consequence the campaign layer
relies on: tables (and therefore cache entries and run summaries) are
byte-identical whatever ``REPRO_CODEC_IMPL`` says, and cache keys do
not mention the backend at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import pipeline, registry, zerocache
from repro.coding.bitops import bytes_to_bits

MAX_EXAMPLES = 25

# Schemes that carry a reference backend (all registered codecs do).
SCHEMES = sorted(registry.codec_schemes())

# Arbitrary whole cache lines: 1-4 lines of 64 bytes.
line_payloads = st.binary(min_size=64, max_size=256).map(
    lambda raw: np.frombuffer(
        raw[: len(raw) - len(raw) % 64], dtype=np.uint8
    ).reshape(-1, 64)
).filter(lambda lines: lines.shape[0] >= 1)


def _backends(scheme):
    info = registry.scheme_info(scheme)
    ref = info.codec_impl("reference")
    fast = info.codec_impl("numpy")
    assert type(ref) is not type(fast), (
        f"{scheme}: reference backend resolves to the numpy codec"
    )
    return ref, fast


def _blocks(lines, data_bits):
    return bytes_to_bits(lines).reshape(-1, data_bits)


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
        # Each backend must decode the *other's* codewords: same code,
        # not merely two self-consistent codes.
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
        assert np.array_equal(
            pipeline.encode_trace(scheme, lines, impl="reference"),
            pipeline.encode_trace(scheme, lines, impl="numpy"),
        )


class TestZeroTablesImplIndependent:
    def _lines(self):
        rng = np.random.default_rng(80)
        return rng.integers(0, 256, size=(32, 64), dtype=np.uint8)

    def test_tables_byte_identical_across_impls(self, monkeypatch):
        lines = self._lines()
        tables = {}
        for impl in ("reference", "numpy"):
            monkeypatch.setenv(registry.IMPL_ENV, impl)
            assert registry.active_impl() == impl
            tables[impl] = pipeline.precompute_line_zeros(
                lines, tuple(SCHEMES), cache=False
            )
        for scheme in SCHEMES:
            ref_t, fast_t = tables["reference"][scheme], tables["numpy"][scheme]
            assert ref_t.dtype == fast_t.dtype
            assert ref_t.tobytes() == fast_t.tobytes()

    def test_cache_keys_do_not_mention_the_backend(self, monkeypatch):
        # Populate the cache under one backend, read it under the other:
        # the second precompute must be pure hits (the same read-only
        # array objects), proving keys are (digest, scheme) only.
        lines = self._lines()
        cache = zerocache.ZeroTableCache()
        digest = zerocache.lines_digest(lines)

        monkeypatch.setenv(registry.IMPL_ENV, "reference")
        first = pipeline.precompute_line_zeros(
            lines, ("dbi", "milc"), digest=digest, cache=cache
        )
        monkeypatch.setenv(registry.IMPL_ENV, "numpy")
        second = pipeline.precompute_line_zeros(
            lines, ("dbi", "milc"), digest=digest, cache=cache
        )
        for scheme in ("dbi", "milc"):
            assert second[scheme] is first[scheme]

    @pytest.mark.parametrize("impl", ["cython", "native"])
    def test_unknown_impl_env_rejected(self, monkeypatch, impl):
        monkeypatch.setenv(registry.IMPL_ENV, impl)
        with pytest.raises(ValueError):
            registry.active_impl()
