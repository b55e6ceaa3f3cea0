"""MiLC — the "More is Less Code" (Section 4.3.2 / 5.2.3, Figures 10, 14).

MiLC encodes 64 data bits laid out as an 8x8 square into an 80-bit
codeword: the (transformed) square plus two extra mode columns.  Every
8-bit row independently picks, among four candidates, the one with the
fewest transmitted 0s (mode-bit 0s included):

=========  =============================  ===========
candidate  transmitted row                mode (inv, xor)
=========  =============================  ===========
original   ``row``                        (0, 0)
inverted   ``~row``                       (1, 0)
xor        ``row ^ prev_row``             (0, 1)
inv-xor    ``~(row ^ prev_row)``          (1, 1)
=========  =============================  ===========

``prev_row`` is always the *original* previous data row, so all eight
row encoders run in parallel (Figure 14) while the decoder recovers rows
top-to-bottom.  The XOR candidates exploit spatial correlation: a row
equal to its predecessor becomes all-ones under inv-xor — zero IO cost.

Row 0 has no predecessor, so only the original/inverted candidates are
available to it; its xor-column position is repurposed as the ``xorbi``
bit (the gray bit in Figure 10), which bus-inverts the other seven xor
mode bits in that column to squeeze out a few more 0s.

Codeword layout (80 bits)::

    [ row0 body (8) | row1 body (8) | ... | row7 body (8)    # 64 bits
      inv0..inv7                                              # 8 bits
      xorbi, xor1..xor7 ]                                     # 8 bits

The mode polarity above means all-1 mode bits accompany the inv-xor
candidate, so perfectly correlated data transmits (almost) no 0s at all.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .base import CodingScheme
from .bitops import popcount_per_byte
from .registry import register_codec

__all__ = ["MiLCCode"]

# Zeros contributed by the two mode bits of each candidate, in candidate
# order (original, inverted, xor, inv-xor).  These constants are the
# "additional constant" inputs of the Figure 14 row encoder.
_MODE_ZERO_COST = np.array([2, 1, 1, 0], dtype=np.int64)

_ROW0_MASK_COST = np.iinfo(np.int64).max


def _candidate_zeros(ones: np.ndarray, xor_ones: np.ndarray) -> np.ndarray:
    """Per-row candidate body zeros from popcounts alone.

    ``ones``/``xor_ones`` have shape ``(..., 8)`` — the popcount of each
    row and of each ``row ^ prev_row``.  The result has shape
    ``(..., 8, 4)`` in candidate order; no candidate *bodies* are
    materialised (the inverted/xor bodies' zero counts are arithmetic
    complements), which keeps the batched kernel free of the old
    ``(n, 8, 4, 8)`` temporary.
    """
    ones = np.asarray(ones, dtype=np.int64)
    xor_ones = np.asarray(xor_ones, dtype=np.int64)
    return np.stack(
        [8 - ones, ones, 8 - xor_ones, xor_ones], axis=-1
    )


def _choose_candidates(zeros: np.ndarray) -> np.ndarray:
    """argmin candidate per row, with row 0 restricted to original/inverted."""
    cost = zeros + _MODE_ZERO_COST
    cost[..., 0, 2:] = _ROW0_MASK_COST
    return cost.argmin(axis=-1)  # ties -> lowest candidate index


def _zeros_for_choice(zeros: np.ndarray, choice: np.ndarray) -> np.ndarray:
    """Total transmitted zeros per block given per-row candidate choices."""
    body_zeros = np.take_along_axis(
        zeros, choice[..., None], axis=-1
    )[..., 0].sum(axis=-1)
    inv_zeros = (1 - (choice % 2)).sum(axis=-1, dtype=np.int64)
    tail_ones = (choice[..., 1:] >= 2).sum(axis=-1, dtype=np.int64)
    # xorbi keeps (zeros = 7 - ones + 0 for the flag's own 1) or flips
    # (zeros = ones + 1 including the now-0 flag), whichever is sparser.
    xor_zeros = np.minimum(7 - tail_ones, tail_ones + 1)
    return body_zeros + inv_zeros + xor_zeros


# Packing of a pair-table entry: the row's transmitted zeros (body plus
# inv bit, at most 9) in the low bits, the xor flag above them.  Seven
# entries sum to at most 63 zeros, so the flag count starts at bit 6.
_FLAG_SHIFT = 6
_ZEROS_MASK = (1 << _FLAG_SHIFT) - 1


@cache
def _zero_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row tables behind :meth:`MiLCCode.count_zeros_bytes`.

    Returns ``(pair, row0, xorbi)``:

    * ``pair[(prev << 8) | row]`` — for rows 1..7, the zeros the chosen
      candidate transmits (body plus inv bit), packed with whether an
      xor candidate won (``flag << _FLAG_SHIFT``);
    * ``row0[row]`` — the same zeros for row 0, whose choice is limited
      to original/inverted;
    * ``xorbi[t]`` — the xor column's zeros when ``t`` of rows 1..7 chose
      an xor candidate (the xorbi flag inverts whichever way is sparser).

    Built once from the same ``_candidate_zeros``/``_choose_candidates``
    the block kernels use, so ties resolve identically: each pair sits
    in the unrestricted row slot of a two-row block whose row 0 is the
    pair's own row.
    """
    values = np.arange(256, dtype=np.uint8)
    prev = np.repeat(values, 256)
    row = np.tile(values, 256)
    ones = popcount_per_byte(row).astype(np.int64)
    xor_ones = popcount_per_byte(row ^ prev).astype(np.int64)
    pair_zeros = _candidate_zeros(ones, xor_ones)  # (65536, 4)
    zeros = np.stack([pair_zeros, pair_zeros], axis=1)  # (65536, 2, 4)
    choice = _choose_candidates(zeros)  # (65536, 2); slot 0 is row 0
    chosen = np.take_along_axis(zeros, choice[..., None], axis=-1)[..., 0]
    sent = chosen + (1 - choice % 2)  # body zeros plus the inv bit
    pair = sent[:, 1] + ((choice[:, 1] >= 2).astype(np.int64) << _FLAG_SHIFT)
    row0 = sent[:256, 0]  # prev == 0 for the first 256 entries
    tail_ones = np.arange(8, dtype=np.int64)
    xorbi = np.minimum(7 - tail_ones, tail_ones + 1)
    tables = (pair.astype(np.uint16), row0.astype(np.int64), xorbi)
    for table in tables:
        table.setflags(write=False)  # shared by every caller
    return tables


@register_codec(
    "milc", burst_length=10, extra_latency=1, layout="beat", pins=64,
    description="the paper's (64, 80) base code: 8 blocks over 64 pins",
)
class MiLCCode(CodingScheme):
    """The (64, 80) MiLC block code."""

    name = "milc"
    data_bits = 64
    code_bits = 80
    extra_latency_cycles = 1

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_blocks(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        lead = data_bits.shape[:-1]
        square = data_bits.reshape(-1, 8, 8)
        n = square.shape[0]

        prev = np.empty_like(square)
        prev[:, 1:] = square[:, :-1]
        prev[:, 0] = 0  # row 0 has no predecessor; masked in the cost
        xored = square ^ prev

        ones = square.sum(axis=-1, dtype=np.int64)  # (n, 8)
        xor_ones = xored.sum(axis=-1, dtype=np.int64)
        zeros = _candidate_zeros(ones, xor_ones)  # (n, 8, 4)
        choice = _choose_candidates(zeros)  # (n, 8)

        inv_col = (choice % 2).astype(np.uint8)  # candidates 1, 3 invert
        xor_col = (choice >= 2).astype(np.uint8)  # candidates 2, 3 xor

        # Select each row's body without materialising all four
        # candidates: pick the (possibly xored) base, then complementing
        # is a XOR with the inv flag.
        base = np.where(xor_col[:, :, None] == 1, xored, square)
        body = base ^ inv_col[:, :, None]

        # xorbi: bus-invert the xor bits of rows 1..7 when that removes 0s.
        tail = xor_col[:, 1:]
        tail_ones = tail.sum(axis=1, dtype=np.int64)
        # keep: xorbi=1 plus the 7 bits as-is -> zeros = 7 - ones
        # flip: xorbi=0 plus the 7 bits inverted -> zeros = ones + 1
        flip = (tail_ones + 1) < (7 - tail_ones)
        xor_out = xor_col.copy()
        xor_out[:, 0] = np.where(flip, 0, 1)
        xor_out[:, 1:] = np.where(flip[:, None], 1 - tail, tail)

        code = np.concatenate(
            [body.reshape(n, 64), inv_col, xor_out], axis=1
        ).astype(np.uint8)
        return code.reshape(lead + (80,))

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode_blocks(self, code_bits: np.ndarray) -> np.ndarray:
        code_bits = np.asarray(code_bits, dtype=np.uint8)
        lead = code_bits.shape[:-1]
        flat = code_bits.reshape(-1, 80)
        n = flat.shape[0]

        body = flat[:, :64].reshape(n, 8, 8)
        inv_col = flat[:, 64:72]
        xor_raw = flat[:, 72:80]

        xorbi = xor_raw[:, 0]
        xor_col = np.zeros((n, 8), dtype=np.uint8)
        xor_col[:, 1:] = np.where(
            (xorbi == 0)[:, None], 1 - xor_raw[:, 1:], xor_raw[:, 1:]
        )

        # Step 1 (parallel): undo inversion.
        uninv = np.where(inv_col[:, :, None] == 1, 1 - body, body)

        # Step 2 (sequential down the rows): undo XOR with decoded rows.
        out = np.empty_like(uninv)
        out[:, 0] = uninv[:, 0]
        for i in range(1, 8):
            out[:, i] = np.where(
                xor_col[:, i, None] == 1, uninv[:, i] ^ out[:, i - 1], uninv[:, i]
            )
        return out.reshape(lead + (64,))

    # ------------------------------------------------------------------
    # Fast zero counting
    # ------------------------------------------------------------------
    def count_zeros(self, data_bits: np.ndarray) -> np.ndarray:
        """Zeros on the bus per 64-bit block, without materialising codes."""
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        lead = data_bits.shape[:-1]
        square = data_bits.reshape(-1, 8, 8)

        prev = np.empty_like(square)
        prev[:, 1:] = square[:, :-1]
        prev[:, 0] = 0

        ones = square.sum(axis=-1, dtype=np.int64)
        xor_ones = (square ^ prev).sum(axis=-1, dtype=np.int64)
        zeros = _candidate_zeros(ones, xor_ones)
        total = _zeros_for_choice(zeros, _choose_candidates(zeros))
        return total.reshape(lead)

    def count_zeros_bytes(self, data: np.ndarray) -> np.ndarray:
        """Zero count from uint8 bytes of shape ``(..., k*8)``.

        Each consecutive group of eight bytes forms one 64-bit block
        whose rows are exactly the bytes, so the cost model reduces to
        table lookups: one per (previous row, row) pair for rows 1..7,
        one for row 0, and one per block for the xorbi column (see
        :func:`_zero_tables`) — no per-candidate temporaries.
        """
        data = np.asarray(data, dtype=np.uint8)
        if data.shape[-1] % 8 != 0:
            raise ValueError("MiLC operates on whole 8-byte blocks")
        rows = data.reshape(data.shape[:-1] + (-1, 8))  # byte == row
        pair, row0, xorbi = _zero_tables()
        index = rows[..., :-1].astype(np.uint16) << 8
        index |= rows[..., 1:]
        packed = pair[index].sum(axis=-1, dtype=np.int64)
        per_block = (
            (packed & _ZEROS_MASK) + row0[rows[..., 0]]
            + xorbi[packed >> _FLAG_SHIFT]
        )
        return per_block.sum(axis=-1)
