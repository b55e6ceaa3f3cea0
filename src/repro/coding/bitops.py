"""Bit-level utilities shared by every coding scheme.

All codecs in :mod:`repro.coding` operate on *bit arrays*: numpy ``uint8``
arrays whose elements are 0 or 1, with the most significant bit of each
byte first.  This matches the way the paper draws codewords (Figure 10,
Figure 13) and makes odd codeword widths (9, 17, 80 bits) natural to
express.

The helpers here are vectorised: they accept an array of any leading
shape and operate on the trailing axis, so the same code path serves a
single byte in a unit test and a 30k-line trace in the simulator.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HAVE_NATIVE_POPCOUNT",
    "bytes_to_bits",
    "bits_to_bytes",
    "popcount_bits",
    "zeros_in_bits",
    "popcount_bytes",
    "popcount_per_byte",
    "zeros_in_bytes",
    "toggle_count_bytes",
    "int_popcount",
    "ints_to_bits",
    "bits_to_ints",
    "byte_popcount_table",
    "parse_bitstring",
    "format_bits",
]

# numpy >= 2.0 exposes the CPU popcount instruction; older releases fall
# back to the 256-entry byte table below.  The flag is public so the
# benchmark suite can tell which code path its numbers describe.
HAVE_NATIVE_POPCOUNT = hasattr(np, "bitwise_count")


def int_popcount(value: int) -> int:
    """Popcount of a non-negative Python int (``int.bit_count``)."""
    if value < 0:
        raise ValueError("popcount of a negative int is undefined")
    return value.bit_count()


def bytes_to_bits(data: np.ndarray) -> np.ndarray:
    """Expand a uint8 array into a bit array (MSB first).

    The output has the same leading shape with the trailing axis expanded
    by a factor of eight: shape ``(..., n)`` becomes ``(..., n * 8)``.
    """
    data = np.asarray(data, dtype=np.uint8)
    return np.unpackbits(data, axis=-1)


def bits_to_bytes(bits: np.ndarray) -> np.ndarray:
    """Pack a bit array (MSB first) back into uint8 bytes.

    The trailing axis length must be a multiple of eight.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[-1] % 8 != 0:
        raise ValueError(
            f"bit array trailing axis ({bits.shape[-1]}) is not a multiple of 8"
        )
    return np.packbits(bits, axis=-1)


def popcount_bits(bits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Count the 1s along ``axis`` of a bit array."""
    return np.count_nonzero(np.asarray(bits), axis=axis)


def zeros_in_bits(bits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Count the 0s along ``axis`` of a bit array.

    The number of 0s is what the DDR4 pseudo-open-drain interface pays
    energy for, so this is the quantity every experiment ultimately sums.
    """
    bits = np.asarray(bits)
    return bits.shape[axis] - np.count_nonzero(bits, axis=axis)


def ints_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Convert integers to fixed-width bit arrays (MSB first).

    ``values`` of shape ``(...,)`` become bits of shape ``(..., width)``.
    """
    values = np.asarray(values, dtype=np.int64)
    if width < 1 or width > 63:
        raise ValueError(f"width must be in [1, 63], got {width}")
    if np.any(values < 0) or np.any(values >= (1 << width)):
        raise ValueError(f"values do not fit in {width} bits")
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((values[..., None] >> shifts) & 1).astype(np.uint8)


def bits_to_ints(bits: np.ndarray) -> np.ndarray:
    """Convert fixed-width bit arrays (MSB first) back to integers."""
    bits = np.asarray(bits, dtype=np.int64)
    width = bits.shape[-1]
    if width > 63:
        raise ValueError(f"width {width} too large for int64 conversion")
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return (bits << shifts).sum(axis=-1)


_BYTE_POPCOUNT = np.array(
    [v.bit_count() for v in range(256)], dtype=np.uint8
)


def byte_popcount_table() -> np.ndarray:
    """Return a 256-entry lookup table mapping a byte to its popcount.

    Returned as a copy so callers can't corrupt the module-level table.
    """
    return _BYTE_POPCOUNT.copy()


def _per_byte_popcount(data: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint8 array (native or table-driven)."""
    if HAVE_NATIVE_POPCOUNT:
        return np.bitwise_count(data)
    return _BYTE_POPCOUNT[data]


def popcount_per_byte(data: np.ndarray) -> np.ndarray:
    """Element-wise popcount of a uint8 array (same shape, uint8 out).

    The building block the batched codec kernels use to cost candidate
    rows without reducing: each byte is replaced by its number of 1
    bits.  Native ``np.bitwise_count`` when available, byte table
    otherwise.
    """
    data = np.asarray(data, dtype=np.uint8)
    return _per_byte_popcount(data)


def popcount_bytes(data: np.ndarray, axis: int = -1) -> np.ndarray:
    """Count the 1 *bits* along ``axis`` of a uint8 byte array.

    This is the fast path for whole-byte payloads: it never expands the
    data 8x the way ``bytes_to_bits`` + :func:`popcount_bits` would.
    With numpy >= 2.0 it compiles to the CPU popcount instruction
    (``np.bitwise_count``, the vectorised ``int.bit_count()``); older
    numpy uses the 256-entry byte table.
    """
    data = np.asarray(data, dtype=np.uint8)
    return _per_byte_popcount(data).sum(axis=axis, dtype=np.int64)


def zeros_in_bytes(data: np.ndarray, axis: int = -1) -> np.ndarray:
    """Count the 0 *bits* along ``axis`` of a uint8 byte array.

    Byte-level dual of :func:`zeros_in_bits` — the quantity the DDR4
    pseudo-open-drain interface pays energy for, counted without ever
    unpacking to a bit array.
    """
    data = np.asarray(data, dtype=np.uint8)
    return data.shape[axis] * 8 - popcount_bytes(data, axis=axis)


def toggle_count_bytes(
    before: np.ndarray, after: np.ndarray, axis: int = -1
) -> np.ndarray:
    """Count bit positions that differ between two uint8 byte arrays.

    The wire-flip (transition) count an unterminated interface pays for
    when the bus goes from ``before`` to ``after``: the popcount of the
    XOR, summed along ``axis``.
    """
    before = np.asarray(before, dtype=np.uint8)
    after = np.asarray(after, dtype=np.uint8)
    return popcount_bytes(before ^ after, axis=axis)


def parse_bitstring(text: str) -> np.ndarray:
    """Parse a human-readable bit string like ``"1011 0001"`` into bits.

    Spaces and underscores are ignored, which makes test vectors easy to
    transcribe from the paper's figures.
    """
    cleaned = text.replace(" ", "").replace("_", "")
    if not cleaned or any(c not in "01" for c in cleaned):
        raise ValueError(f"not a bit string: {text!r}")
    return np.array([int(c) for c in cleaned], dtype=np.uint8)


def format_bits(bits: np.ndarray, group: int = 8) -> str:
    """Render a 1-D bit array as a grouped string for debugging."""
    bits = np.asarray(bits).ravel()
    chars = "".join(str(int(b)) for b in bits)
    if group <= 0:
        return chars
    return " ".join(chars[i : i + group] for i in range(0, len(chars), group))
