"""Coding schemes for energy-efficient data movement.

This package implements every code the paper uses or compares against:

* :class:`~repro.coding.dbi.DBICode` — DDR4's native data bus inversion.
* :class:`~repro.coding.businvert.BusInvertCode` — transition-count
  bus-invert for unterminated interfaces.
* :class:`~repro.coding.transition.TransitionSignaling` — the XOR-based
  signaling layer that lets LPDDR3 reuse zero-minimising codes.
* :class:`~repro.coding.lwc.ThreeLWC` — the improved (8, 17)
  3-limited-weight code.
* :class:`~repro.coding.milc.MiLCCode` — the paper's new (64, 80) code.
* :class:`~repro.coding.cafo.CAFOCode` — the CAFO comparison point.
* :class:`~repro.coding.optimal_lwc.OptimalStaticLWC` — frequency-optimal
  static codes for the Figure 7 potential study.

Scheme knowledge (burst lengths, latencies, layouts, zero-count paths)
lives in :mod:`~repro.coding.registry`; new codecs self-register with
:func:`~repro.coding.registry.register_codec` and every downstream
surface picks them up automatically.  Zero tables for repeated traces
are served by the campaign-wide :mod:`~repro.coding.zerocache`.

Each registered codec has one implementation, a vectorised batched
kernel.  The tests hold every kernel bit-for-bit to a per-element
pure-Python reference kept in ``tests/codec_oracle.py``.
"""

from .base import BlockShapeError, CodingScheme
from .businvert import BusInvertCode
from .cafo import CAFOCode
from .dbi import DBICode, dbi_zero_table
from .lwc import ThreeLWC, lwc_mode_table, lwc_zero_table
from .lwc_family import (
    GOLAY_POLY,
    KLimitedWeightCode,
    PerfectThreeLWC,
    golay_syndrome,
    lwc_capacity_bits,
)
from .milc import MiLCCode
from .optimal_lwc import OptimalStaticLWC, byte_frequencies, codeword_zero_levels
from .pipeline import (
    LINE_BYTES,
    beat_layout,
    encode_trace,
    line_zeros,
    precompute_line_zeros,
    raw_line_zeros,
)
from .registry import (
    CodecInfo,
    NoCodecError,
    codec_for,
    codec_schemes,
    real_schemes,
    register_burst_format,
    register_codec,
    scheme_info,
    scheme_items,
    scheme_names,
    unregister_scheme,
)
from .transition import TransitionSignaling
from .zerocache import ZeroTableCache, global_cache, reset_global_cache

__all__ = [
    "BlockShapeError",
    "CodingScheme",
    "BusInvertCode",
    "CAFOCode",
    "DBICode",
    "dbi_zero_table",
    "ThreeLWC",
    "lwc_mode_table",
    "lwc_zero_table",
    "GOLAY_POLY",
    "KLimitedWeightCode",
    "PerfectThreeLWC",
    "golay_syndrome",
    "lwc_capacity_bits",
    "MiLCCode",
    "OptimalStaticLWC",
    "byte_frequencies",
    "codeword_zero_levels",
    "TransitionSignaling",
    "LINE_BYTES",
    "beat_layout",
    "encode_trace",
    "line_zeros",
    "precompute_line_zeros",
    "raw_line_zeros",
    "CodecInfo",
    "NoCodecError",
    "codec_for",
    "codec_schemes",
    "real_schemes",
    "register_burst_format",
    "register_codec",
    "scheme_info",
    "scheme_items",
    "scheme_names",
    "unregister_scheme",
    "ZeroTableCache",
    "global_cache",
    "reset_global_cache",
]
