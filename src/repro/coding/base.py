"""Common interface for all coding schemes in the MiL framework.

A :class:`CodingScheme` maps fixed-size blocks of data bits to fixed-size
codewords.  The MiL framework (Section 4.3 of the paper) only admits
codes with a *deterministic* latency and codeword length, because the
memory controller must know, at scheduling time, exactly how many extra
data-bus cycles a coded burst will occupy.  That constraint is captured
here by ``data_bits``/``code_bits`` being class-level constants.

Three views of each code are provided:

* ``encode_blocks`` / ``decode_blocks`` — the real bit-level transform,
  used by round-trip tests and by anything that needs actual codewords.
* ``count_zeros`` — a (usually much faster) vectorised path that returns
  only the number of 0s each encoded block would put on the bus, which is
  all the energy model needs.  The default implementation derives it from
  ``encode_blocks``; subclasses override it with lookup tables.
* ``encode_lines`` / ``line_zeros`` / ``count_zeros_bytes`` — the
  *batched kernel contract*: whole traces enter as ``(n_lines, k)``
  uint8 byte arrays (64-byte cache lines in practice) and are encoded
  or costed in one vectorised shot, without ever dropping into
  per-element Python.  The defaults here derive everything from
  ``encode_blocks``/``count_zeros``, so a minimal codec (or a
  pure-Python reference in the test oracle) is automatically
  trace-capable;
  production codecs override ``count_zeros_bytes`` with byte-table
  kernels that never unpack to bits at all.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .bitops import bytes_to_bits, zeros_in_bits

__all__ = ["CodingScheme", "BlockShapeError"]


class BlockShapeError(ValueError):
    """Raised when input data is not shaped as whole coding blocks."""


class CodingScheme(ABC):
    """Abstract base for deterministic-latency block codes.

    Attributes
    ----------
    name:
        Short identifier used in experiment tables (``"dbi"``, ``"milc"``).
    data_bits:
        Number of data bits consumed per block.
    code_bits:
        Number of code bits produced per block.
    extra_latency_cycles:
        Codec latency in DRAM cycles added to tCL/tWL when this scheme is
        in use (Section 4.4: one cycle for DBI/MiLC/3-LWC; k for CAFO-k).
    """

    name: str = "abstract"
    data_bits: int = 0
    code_bits: int = 0
    extra_latency_cycles: int = 0

    # ------------------------------------------------------------------
    # Core transform
    # ------------------------------------------------------------------
    @abstractmethod
    def encode_blocks(self, data_bits: np.ndarray) -> np.ndarray:
        """Encode blocks of shape ``(..., data_bits)`` to ``(..., code_bits)``."""

    @abstractmethod
    def decode_blocks(self, code_bits: np.ndarray) -> np.ndarray:
        """Invert :meth:`encode_blocks`."""

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def _check_shape(self, bits: np.ndarray, expected: int, what: str) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape[-1] != expected:
            raise BlockShapeError(
                f"{self.name}: {what} trailing axis must be {expected} bits, "
                f"got {bits.shape[-1]}"
            )
        if bits.size and bits.max() > 1:
            raise BlockShapeError(f"{self.name}: {what} is not a 0/1 bit array")
        return bits

    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        """Validate shape, then encode."""
        return self.encode_blocks(self._check_shape(data_bits, self.data_bits, "data"))

    def decode(self, code_bits: np.ndarray) -> np.ndarray:
        """Validate shape, then decode."""
        return self.decode_blocks(self._check_shape(code_bits, self.code_bits, "code"))

    def count_zeros(self, data_bits: np.ndarray) -> np.ndarray:
        """Number of 0s on the bus for each encoded block.

        Shape ``(..., data_bits)`` in, shape ``(...)`` out.  Subclasses
        with cheap closed forms (per-byte lookup tables) override this.
        """
        return zeros_in_bits(self.encode(data_bits))

    # ------------------------------------------------------------------
    # Batched kernel contract (trace-level, byte-domain)
    # ------------------------------------------------------------------
    def _check_lines(self, lines: np.ndarray) -> np.ndarray:
        lines = np.asarray(lines, dtype=np.uint8)
        if lines.ndim == 1:
            lines = lines[None, :]
        if lines.ndim != 2:
            raise BlockShapeError(
                f"{self.name}: expected (n_lines, bytes), got shape "
                f"{lines.shape}"
            )
        if (lines.shape[-1] * 8) % self.data_bits != 0:
            raise BlockShapeError(
                f"{self.name}: {lines.shape[-1]} bytes per line is not a "
                f"whole number of {self.data_bits}-bit blocks"
            )
        return lines

    def encode_lines(self, lines: np.ndarray) -> np.ndarray:
        """Encode a whole trace of byte rows in one vectorised shot.

        ``(n_lines, k)`` uint8 *bytes* in (``k = 64`` for cache lines),
        ``(n_lines, blocks * code_bits)`` uint8 *bits* out — every
        codeword of every line, concatenated in transmission order.
        The default splits each row into ``data_bits``-bit blocks and
        defers to :meth:`encode_blocks`, which all shipped codecs
        implement as whole-array kernels, so no per-line Python runs.
        """
        lines = self._check_lines(lines)
        bits = bytes_to_bits(lines)
        blocks = bits.reshape(lines.shape[0], -1, self.data_bits)
        coded = self.encode_blocks(blocks)
        return coded.reshape(lines.shape[0], -1)

    def count_zeros_bytes(self, data: np.ndarray) -> np.ndarray:
        """Zeros on the bus per row of a ``(..., k)`` uint8 byte array.

        The byte-domain hot path the zero-table precompute runs on.
        The default unpacks to bits and sums :meth:`count_zeros` per
        block; production codecs override it with byte-indexed lookup
        tables that never materialise a bit array.
        """
        data = np.asarray(data, dtype=np.uint8)
        bits = bytes_to_bits(data)
        blocks = bits.reshape(bits.shape[:-1] + (-1, self.data_bits))
        return self.count_zeros(blocks).sum(axis=-1, dtype=np.int64)

    def line_zeros(self, lines: np.ndarray) -> np.ndarray:
        """Zeros per line for ``(n_lines, k)`` byte rows (kernel alias).

        Canonical kernel-contract name; dispatches to
        :meth:`count_zeros_bytes` so codecs that already ship a fast
        byte-table counter serve the trace path automatically.  Note the
        registry applies the beat/line layout *before* calling this.
        """
        return self.count_zeros_bytes(self._check_lines(lines))

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def expansion(self) -> float:
        """Bandwidth overhead factor (code bits per data bit)."""
        return self.code_bits / self.data_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name}: "
            f"({self.data_bits},{self.code_bits})>"
        )
