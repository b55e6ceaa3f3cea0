"""The table-driven MiLC zero count against the per-candidate formula.

``MiLCCode.count_zeros_bytes`` reads precomputed per-row tables (see
``repro.coding.milc._zero_tables``).  The formula it replaced builds all
four candidate costs per row and picks the argmin; it is kept here as
the reference, and the kernel must agree with it exhaustively: on every
(previous row, row) pair, on every row-0 value, and on random lines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.bitops import popcount_per_byte
from repro.coding.milc import (
    MiLCCode,
    _candidate_zeros,
    _choose_candidates,
    _zeros_for_choice,
)
from repro.coding.pipeline import line_zeros

KERNEL = MiLCCode()
VALUES = np.arange(256, dtype=np.uint8)


def formula_zeros_bytes(data: np.ndarray) -> np.ndarray:
    """Zeros per ``(..., k*8)`` byte row: four candidate costs, argmin."""
    data = np.asarray(data, dtype=np.uint8)
    rows = data.reshape(data.shape[:-1] + (-1, 8))
    prev = np.empty_like(rows)
    prev[..., 1:] = rows[..., :-1]
    prev[..., 0] = 0
    ones = popcount_per_byte(rows).astype(np.int64)
    xor_ones = popcount_per_byte(rows ^ prev).astype(np.int64)
    zeros = _candidate_zeros(ones, xor_ones)
    per_block = _zeros_for_choice(zeros, _choose_candidates(zeros))
    return per_block.sum(axis=-1)


def _check(blocks: np.ndarray) -> None:
    got = KERNEL.count_zeros_bytes(blocks)
    want = formula_zeros_bytes(blocks)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def _pairs() -> tuple[np.ndarray, np.ndarray]:
    """Every (previous row, row) pair, as two parallel byte columns."""
    return np.repeat(VALUES, 256), np.tile(VALUES, 256)


def test_every_pair_after_zero_rows():
    # Rows 0..5 are zero, so rows 6 and 7 form the only free pair; the
    # (0, 0) and (0, prev) pairs leading into it are themselves covered.
    prev, row = _pairs()
    blocks = np.zeros((prev.size, 8), dtype=np.uint8)
    blocks[:, 6] = prev
    blocks[:, 7] = row
    _check(blocks)


def test_every_pair_alternating():
    # [p, r, p, r, ...]: every pair in both orders, and p as row 0.
    prev, row = _pairs()
    blocks = np.empty((prev.size, 8), dtype=np.uint8)
    blocks[:, 0::2] = prev[:, None]
    blocks[:, 1::2] = row[:, None]
    _check(blocks)


def test_every_pair_repeated():
    # [p, r, r, ..., r]: the pair once, then six identical rows.
    prev, row = _pairs()
    blocks = np.repeat(row[:, None], 8, axis=1)
    blocks[:, 0] = prev
    _check(blocks)


def test_every_row0_value():
    blocks = np.zeros((256, 8), dtype=np.uint8)
    blocks[:, 0] = VALUES
    _check(blocks)
    _check(np.repeat(VALUES[:, None], 8, axis=1))
    _check(np.repeat((~VALUES)[:, None], 8, axis=1) ^ blocks)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_lines(seed):
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 256, size=(2000, 64), dtype=np.uint8)
    # Correlated rows (repeats, near-repeats, sparse bytes) reach the
    # xor candidates; uniform bytes mostly do not.
    lines[::3] = np.repeat(lines[::3, :8], 8, axis=1)
    lines[1::3] &= rng.integers(0, 256, size=(lines[1::3].shape[0], 1),
                                dtype=np.uint8)
    lines[2::5] ^= lines[2::5, :1]
    _check(lines)
    _check(lines.reshape(40, 50, 64))
    np.testing.assert_array_equal(
        line_zeros("milc", lines),
        formula_zeros_bytes(
            lines.reshape(-1, 8, 8).transpose(0, 2, 1).reshape(-1, 64)
        ),
    )


def test_rejects_partial_blocks():
    with pytest.raises(ValueError):
        KERNEL.count_zeros_bytes(np.zeros((2, 12), dtype=np.uint8))
