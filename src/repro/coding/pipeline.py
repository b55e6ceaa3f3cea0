"""Burst-level coding pipeline: cache lines -> bus beats and zero counts.

The DRAM simulator moves 64-byte cache lines.  This module turns the
:mod:`~repro.coding.registry` — the single source of truth for how each
coding scheme packs a line onto the DDR4 data pins (Figure 12 of the
paper), what burst length that implies, and how many 0s end up on the
wires — into the zero tables the pseudo-open-drain IO energy model
charges for (and, via transition signaling, the LPDDR3 flip count).

Burst formats (Section 4.4):

========  ============  =====================================
scheme    burst length  packing
========  ============  =====================================
dbi       8             64 data pins + 8 DBI pins, 8 beats
milc      10            8 x (64 -> 80) blocks over 64 pins
cafo2/4   10            8 x (64 -> 80) blocks over 64 pins
3lwc      16            64 x (8 -> 17) codewords over the 72
                        data+DBI pins, 64 pad bits sent as 1s
========  ============  =====================================

``precompute_line_zeros`` is the hot path: it evaluates every scheme
over an entire trace of lines with vectorised numpy so the simulator
only ever does table lookups — and serves repeated traces from the
campaign-wide :mod:`~repro.coding.zerocache`, so a campaign that
replays one trace under many policies encodes each (trace, scheme)
pair exactly once per process.

``scheme_for`` and ``line_zeros`` are thin conveniences over the
registry; burst lengths and latencies come from
:func:`~repro.coding.registry.scheme_info`.
"""

from __future__ import annotations

import numpy as np

# Importing the codec modules is what populates the registry; pipeline
# guarantees the built-in schemes are present regardless of how it was
# reached.  ``reference`` must come after the codec modules: it attaches
# the pure-Python oracle backends to the entries they register.
from . import cafo, dbi, lwc, lwc_family, milc  # noqa: F401
from . import reference  # noqa: F401
from . import registry, zerocache
from .bitops import zeros_in_bytes
from .registry import LINE_BYTES, NoCodecError, beat_layout, check_lines

__all__ = [
    "LINE_BYTES",
    "NoCodecError",
    "beat_layout",
    "scheme_for",
    "encode_trace",
    "line_zeros",
    "precompute_line_zeros",
    "raw_line_zeros",
]


def raw_line_zeros(lines: np.ndarray) -> np.ndarray:
    """Zeros in the *uncoded* 512-bit lines (Figure 7's normalisation).

    Counted straight on the byte values (popcount), never via an 8x
    bit-array expansion — this runs once per line per campaign run.
    """
    return zeros_in_bytes(check_lines(lines))


# Uncoded transfer: the only option for x4 devices, which have no DBI
# pins (Section 2.1.1) — and MiL's fallback tier.  It has no codec
# object, but its zero-count path is the raw popcount.
registry.register_burst_format(
    "raw", burst_length=8, extra_latency=0,
    count_fn=raw_line_zeros,
    description="uncoded bursts (the only option on x4 devices)",
)
# Hypothetical intermediate lengths for the Figure 20 fixed-burst
# sensitivity sweep (the paper evaluates BL 10/12/14/16 regardless of
# any specific code occupying them).  No codec: asking them for zero
# counts raises NoCodecError.
registry.register_burst_format(
    "bl12", burst_length=12, extra_latency=1,
    description="fixed burst length 12 (Figure 20 sweep; no codec)",
)
registry.register_burst_format(
    "bl14", burst_length=14, extra_latency=1,
    description="fixed burst length 14 (Figure 20 sweep; no codec)",
)


def scheme_for(name: str):
    """Return the codec object registered under ``name``.

    Raises ``KeyError`` for unknown schemes and :class:`NoCodecError`
    (a ``KeyError`` subclass) for burst-format-only entries such as
    ``bl12``/``bl14`` or ``raw``.
    """
    return registry.codec_for(name)


def line_zeros(scheme: str, lines: np.ndarray) -> np.ndarray:
    """Zeros put on the bus per line when transmitted under ``scheme``.

    Accepts ``(n, 64)`` uint8 lines (or a single line) and returns an
    ``(n,)`` int64 count that already includes flag/mode/pad bits.
    Burst-format-only schemes raise :class:`NoCodecError`.
    """
    return registry.scheme_info(scheme).line_zeros(lines)


def encode_trace(
    scheme: str, lines: np.ndarray, impl: str | None = None
) -> np.ndarray:
    """Encode a whole trace of lines under ``scheme`` in one batched shot.

    Applies the scheme's Figure 12 layout (beat squares for MiLC/CAFO,
    line order for DBI/LWC) and runs the codec's ``encode_lines``
    kernel: ``(n, 64)`` uint8 lines in, ``(n, code_bits_per_line)``
    uint8 bit rows out.  ``impl`` selects a specific backend
    (``"reference"`` | ``"numpy"``, or one another package registered);
    ``None`` uses the process-wide
    :func:`~repro.coding.registry.active_impl`.  This is
    what the ``coding.encode_trace.*`` benchmarks measure.
    """
    info = registry.scheme_info(scheme)
    lines = check_lines(lines)
    arranged = beat_layout(lines) if info.layout == "beat" else lines
    return info.codec_impl(impl).encode_lines(arranged)


def precompute_line_zeros(
    lines: np.ndarray,
    schemes: tuple[str, ...] = ("dbi", "milc", "3lwc"),
    digest: str | None = None,
    cache=True,
) -> dict[str, np.ndarray]:
    """Evaluate several schemes over a whole trace of lines at once.

    The simulator calls this once per workload and then charges IO
    energy with O(1) lookups per transferred burst.

    Tables are served from the campaign-wide
    :class:`~repro.coding.zerocache.ZeroTableCache`, keyed on
    ``(trace digest, scheme)``, so replaying one trace under many
    policies encodes each pair once per process.  ``digest`` lets the
    caller supply a precomputed content digest of ``lines`` (e.g.
    :attr:`~repro.workloads.trace.MemoryTrace.line_digest`); ``cache``
    may be ``False`` (bypass), ``True`` (the process-global cache), or
    a private :class:`~repro.coding.zerocache.ZeroTableCache`.  Cached
    tables are read-only arrays.

    Cache keys are ``(trace digest, scheme)`` and deliberately do *not*
    include the active codec backend: every backend of a scheme is
    required to be bit-identical (see ``register_backend``), so the
    tables — and everything downstream, including campaign cache
    entries — are byte-identical whatever ``REPRO_CODEC_IMPL`` says.
    """
    lines = check_lines(lines)
    if cache is True:
        cache = zerocache.global_cache() if zerocache.cache_enabled() else None
    elif cache is False:
        cache = None
    if cache is None:
        return {scheme: line_zeros(scheme, lines) for scheme in schemes}
    if digest is None:
        digest = zerocache.lines_digest(lines)
    tables: dict[str, np.ndarray] = {}
    for scheme in schemes:
        table = cache.get(digest, scheme)
        if table is None:
            table = cache.put(digest, scheme, line_zeros(scheme, lines))
        tables[scheme] = table
    return tables
