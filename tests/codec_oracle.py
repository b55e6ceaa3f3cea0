"""The equivalence oracle for the codecs: per-element Python references.

Production has one implementation per registered scheme, a vectorised
kernel.  This module keeps a second, obviously-correct version of each,
for tests to compare the kernels against.  Every class here re-derives
its code directly from the paper's prose, one element at a time, in
plain Python: nibble pairs are classified with ``if`` chains, MiLC rows
pick candidates with ``min()``, CAFO passes walk 8x8 squares with
nested loops.  Nothing is shared with the kernels beyond the
:class:`~repro.coding.base.CodingScheme` interface, which is the point:
``tests/coding/test_backend_equivalence.py`` holds the two bit-for-bit
to each other, so a vectorisation bug in a kernel cannot hide behind
its own zero table.

* :data:`REFERENCE_FACTORIES` — one reference factory per registered
  codec scheme;
* :data:`KERNEL_FACTORIES` — the registry's kernel factories, captured
  when this module is imported, before any swap;
* :func:`reference_codecs` — swaps the references into
  ``repro.coding.registry`` for a ``with`` block, so ``codec_for``,
  ``precompute_line_zeros`` and ``run_spec`` run on the oracle
  unchanged.  ``pytest --codec-oracle`` runs the whole suite inside it.

The references are orders of magnitude slower than the kernels (the
gate in ``benchmarks/test_batched_codec_speedup.py`` measures the gap),
but they must produce byte-identical zero tables.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from itertools import combinations
from unittest import mock

import numpy as np

from repro.coding import registry
from repro.coding.base import CodingScheme
from repro.coding.zerocache import reset_global_cache

__all__ = [
    "KERNEL_FACTORIES",
    "REFERENCE_FACTORIES",
    "ReferenceCAFO",
    "ReferenceDBI",
    "ReferenceKLWC",
    "ReferenceMiLC",
    "ReferenceThreeLWC",
    "reference_codecs",
    "swapped_codecs",
]

_POPCOUNT = [bin(v).count("1") for v in range(256)]


def _byte_bits(value: int) -> list[int]:
    """One byte as a list of 8 bits, MSB first."""
    return [(value >> s) & 1 for s in range(7, -1, -1)]


def _bits_value(bits) -> int:
    """MSB-first bit list back to its integer value."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def _rows_of(block) -> list[list[int]]:
    """A 64-bit block as eight 8-bit rows (the 8x8 square)."""
    return [list(block[8 * i : 8 * i + 8]) for i in range(8)]


class ReferenceDBI(CodingScheme):
    """Per-byte DBI exactly as Section 2.1.1 describes it."""

    name = "dbi"
    data_bits = 8
    code_bits = 9
    extra_latency_cycles = 0

    def encode_blocks(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        lead = data_bits.shape[:-1]
        out = []
        for row in data_bits.reshape(-1, 8).tolist():
            if row.count(0) > 4:
                out.append([1 - b for b in row] + [0])
            else:
                out.append(row + [1])
        return np.array(out, dtype=np.uint8).reshape(lead + (9,))

    def decode_blocks(self, code_bits: np.ndarray) -> np.ndarray:
        code_bits = np.asarray(code_bits, dtype=np.uint8)
        lead = code_bits.shape[:-1]
        out = []
        for word in code_bits.reshape(-1, 9).tolist():
            body = word[:8]
            out.append(body if word[8] == 1 else [1 - b for b in body])
        return np.array(out, dtype=np.uint8).reshape(lead + (8,))

    def count_zeros(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        lead = data_bits.shape[:-1]
        out = []
        for row in data_bits.reshape(-1, 8).tolist():
            zeros = row.count(0)
            out.append(zeros if zeros <= 4 else (8 - zeros) + 1)
        return np.array(out, dtype=np.int64).reshape(lead)

    def count_zeros_bytes(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.uint8)
        lead = data.shape[:-1]
        out = []
        for row in data.reshape(-1, data.shape[-1]).tolist():
            total = 0
            for byte in row:
                zeros = 8 - _POPCOUNT[byte]
                total += zeros if zeros <= 4 else (8 - zeros) + 1
            out.append(total)
        return np.array(out, dtype=np.int64).reshape(lead)


def _lwc_mode(left: int, right: int) -> int:
    """Table 1 of the paper, transcribed case by case."""
    if left == right:
        return 0b00 if left == 0 else 0b01
    if right == 0:
        return 0b00
    if left == 0:
        return 0b10
    return 0b10 if left > right else 0b00


def _lwc_word(byte: int) -> list[int]:
    """Pre-complement ``code || mode`` word for one byte value."""
    left, right = byte >> 4, byte & 0xF
    code = [0] * 15
    if left:
        code[left - 1] = 1
    if right:
        code[right - 1] = 1
    mode = _lwc_mode(left, right)
    return code + [(mode >> 1) & 1, mode & 1]


class ReferenceThreeLWC(CodingScheme):
    """The (8, 17) 3-LWC, one nibble pair at a time (Figure 13)."""

    name = "3lwc"
    data_bits = 8
    code_bits = 17
    extra_latency_cycles = 1

    def encode_blocks(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        lead = data_bits.shape[:-1]
        out = []
        for row in data_bits.reshape(-1, 8).tolist():
            out.append([1 - b for b in _lwc_word(_bits_value(row))])
        return np.array(out, dtype=np.uint8).reshape(lead + (17,))

    def decode_blocks(self, code_bits: np.ndarray) -> np.ndarray:
        code_bits = np.asarray(code_bits, dtype=np.uint8)
        lead = code_bits.shape[:-1]
        out = []
        for transmitted in code_bits.reshape(-1, 17).tolist():
            word = [1 - b for b in transmitted]
            code, mode = word[:15], (word[15] << 1) | word[16]
            lanes = [i + 1 for i, b in enumerate(code) if b]
            if not lanes:
                left = right = 0
            elif len(lanes) == 1:
                value = lanes[0]
                if mode == 0b01:
                    left = right = value
                elif mode == 0b10:
                    left, right = 0, value
                else:
                    left, right = value, 0
            else:
                small, large = lanes[0], lanes[-1]
                if mode == 0b10:
                    left, right = large, small
                else:
                    left, right = small, large
            out.append(_byte_bits((left << 4) | right))
        return np.array(out, dtype=np.uint8).reshape(lead + (8,))

    def count_zeros(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        lead = data_bits.shape[:-1]
        out = [
            sum(_lwc_word(_bits_value(row)))
            for row in data_bits.reshape(-1, 8).tolist()
        ]
        return np.array(out, dtype=np.int64).reshape(lead)

    def count_zeros_bytes(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.uint8)
        lead = data.shape[:-1]
        out = [
            sum(sum(_lwc_word(byte)) for byte in row)
            for row in data.reshape(-1, data.shape[-1]).tolist()
        ]
        return np.array(out, dtype=np.int64).reshape(lead)


def _milc_encode_square(rows: list[list[int]]) -> list[int]:
    """Encode one 8x8 square to its 80-bit MiLC word (Figure 14)."""
    choices = []
    for i in range(8):
        ones = sum(rows[i])
        costs = [(8 - ones) + 2, ones + 1]
        if i > 0:
            xor_ones = sum(
                rows[i][j] ^ rows[i - 1][j] for j in range(8)
            )
            costs += [(8 - xor_ones) + 1, xor_ones]
        choices.append(costs.index(min(costs)))

    body: list[int] = []
    inv_col: list[int] = []
    xor_col: list[int] = []
    for i, choice in enumerate(choices):
        if choice >= 2:
            base = [rows[i][j] ^ rows[i - 1][j] for j in range(8)]
        else:
            base = list(rows[i])
        if choice % 2:
            base = [1 - b for b in base]
        body.extend(base)
        inv_col.append(choice % 2)
        xor_col.append(1 if choice >= 2 else 0)

    tail = xor_col[1:]
    tail_ones = sum(tail)
    if (tail_ones + 1) < (7 - tail_ones):
        xor_out = [0] + [1 - b for b in tail]
    else:
        xor_out = [1] + tail
    return body + inv_col + xor_out


class ReferenceMiLC(CodingScheme):
    """The (64, 80) MiLC, one row decision at a time."""

    name = "milc"
    data_bits = 64
    code_bits = 80
    extra_latency_cycles = 1

    def encode_blocks(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        lead = data_bits.shape[:-1]
        out = [
            _milc_encode_square(_rows_of(block))
            for block in data_bits.reshape(-1, 64).tolist()
        ]
        return np.array(out, dtype=np.uint8).reshape(lead + (80,))

    def decode_blocks(self, code_bits: np.ndarray) -> np.ndarray:
        code_bits = np.asarray(code_bits, dtype=np.uint8)
        lead = code_bits.shape[:-1]
        out = []
        for word in code_bits.reshape(-1, 80).tolist():
            body = _rows_of(word[:64])
            inv_col = word[64:72]
            xor_raw = word[72:80]
            if xor_raw[0] == 0:
                xor_col = [0] + [1 - b for b in xor_raw[1:]]
            else:
                xor_col = [0] + xor_raw[1:]
            rows: list[list[int]] = []
            for i in range(8):
                row = body[i]
                if inv_col[i]:
                    row = [1 - b for b in row]
                if xor_col[i]:
                    row = [row[j] ^ rows[i - 1][j] for j in range(8)]
                rows.append(row)
            out.append([b for row in rows for b in row])
        return np.array(out, dtype=np.uint8).reshape(lead + (64,))

    def count_zeros(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        lead = data_bits.shape[:-1]
        out = [
            _milc_encode_square(_rows_of(block)).count(0)
            for block in data_bits.reshape(-1, 64).tolist()
        ]
        return np.array(out, dtype=np.int64).reshape(lead)

    def count_zeros_bytes(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.uint8)
        if data.shape[-1] % 8 != 0:
            raise ValueError("MiLC operates on whole 8-byte blocks")
        lead = data.shape[:-1]
        out = []
        for line in data.reshape(-1, data.shape[-1]).tolist():
            total = 0
            for start in range(0, len(line), 8):
                rows = [_byte_bits(b) for b in line[start : start + 8]]
                total += _milc_encode_square(rows).count(0)
            out.append(total)
        return np.array(out, dtype=np.int64).reshape(lead)


def _cafo_solve(
    rows: list[list[int]], iterations: int | None
) -> tuple[list[int], list[int]]:
    """Row/column flip indicators for one square, synchronised passes."""
    rf = [0] * 8
    cf = [0] * 8

    def row_pass() -> bool:
        flips = []
        for i in range(8):
            zeros = sum(
                1 - (rows[i][j] ^ rf[i] ^ cf[j]) for j in range(8)
            )
            flips.append(((8 - zeros) + (1 - rf[i])) < (zeros + rf[i]))
        for i, flip in enumerate(flips):
            if flip:
                rf[i] ^= 1
        return any(flips)

    def col_pass() -> bool:
        flips = []
        for j in range(8):
            zeros = sum(
                1 - (rows[i][j] ^ rf[i] ^ cf[j]) for i in range(8)
            )
            flips.append(((8 - zeros) + (1 - cf[j])) < (zeros + cf[j]))
        for j, flip in enumerate(flips):
            if flip:
                cf[j] ^= 1
        return any(flips)

    if iterations is not None:
        for i in range(iterations):
            row_pass() if i % 2 == 0 else col_pass()
    else:
        for _ in range(64):
            changed = row_pass()
            changed |= col_pass()
            if not changed:
                break
    return rf, cf


class ReferenceCAFO(CodingScheme):
    """(64, 80) CAFO with nested-loop passes over each 8x8 square."""

    data_bits = 64
    code_bits = 80

    def __init__(self, iterations: int | None = 2):
        if iterations is not None and iterations < 1:
            raise ValueError("iterations must be >= 1 or None")
        self.iterations = iterations
        self.name = "cafo" if iterations is None else f"cafo{iterations}"
        self.extra_latency_cycles = (
            iterations if iterations is not None else 4
        )

    def _encode_square(self, rows: list[list[int]]) -> list[int]:
        rf, cf = _cafo_solve(rows, self.iterations)
        eff = [
            rows[i][j] ^ rf[i] ^ cf[j]
            for i in range(8)
            for j in range(8)
        ]
        return eff + [1 - f for f in rf] + [1 - f for f in cf]

    def encode_blocks(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        lead = data_bits.shape[:-1]
        out = [
            self._encode_square(_rows_of(block))
            for block in data_bits.reshape(-1, 64).tolist()
        ]
        return np.array(out, dtype=np.uint8).reshape(lead + (80,))

    def decode_blocks(self, code_bits: np.ndarray) -> np.ndarray:
        code_bits = np.asarray(code_bits, dtype=np.uint8)
        lead = code_bits.shape[:-1]
        out = []
        for word in code_bits.reshape(-1, 80).tolist():
            eff = _rows_of(word[:64])
            rf = [1 - b for b in word[64:72]]
            cf = [1 - b for b in word[72:80]]
            out.append(
                [
                    eff[i][j] ^ rf[i] ^ cf[j]
                    for i in range(8)
                    for j in range(8)
                ]
            )
        return np.array(out, dtype=np.uint8).reshape(lead + (64,))

    def count_zeros(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        lead = data_bits.shape[:-1]
        out = [
            self._encode_square(_rows_of(block)).count(0)
            for block in data_bits.reshape(-1, 64).tolist()
        ]
        return np.array(out, dtype=np.int64).reshape(lead)

    def count_zeros_bytes(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.uint8)
        if data.shape[-1] % 8 != 0:
            raise ValueError("CAFO operates on whole 8-byte blocks")
        lead = data.shape[:-1]
        out = []
        for line in data.reshape(-1, data.shape[-1]).tolist():
            total = 0
            for start in range(0, len(line), 8):
                rows = [_byte_bits(b) for b in line[start : start + 8]]
                total += self._encode_square(rows).count(0)
            out.append(total)
        return np.array(out, dtype=np.int64).reshape(lead)


class ReferenceKLWC(CodingScheme):
    """Enumerative k-LWC with an explicit Python codebook dict."""

    def __init__(self, data_bits: int, code_bits: int, max_weight: int):
        self.data_bits = data_bits
        self.code_bits = code_bits
        self.max_weight = max_weight
        self.name = f"lwc-{data_bits}-{code_bits}-w{max_weight}"
        self.extra_latency_cycles = 1

        size = 1 << data_bits
        words: list[tuple[int, ...]] = []
        weight = 0
        while len(words) < size:
            for ones in combinations(range(code_bits), weight):
                if len(words) >= size:
                    break
                word = [0] * code_bits
                for i in ones:
                    word[i] = 1
                words.append(tuple(word))
            weight += 1
        if len(words) < size:
            raise ValueError("codebook cannot hold all data values")
        self._words = words
        self._reverse = {word: value for value, word in enumerate(words)}

    def encode_blocks(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        lead = data_bits.shape[:-1]
        out = [
            [1 - b for b in self._words[_bits_value(row)]]
            for row in data_bits.reshape(-1, self.data_bits).tolist()
        ]
        return np.array(out, dtype=np.uint8).reshape(
            lead + (self.code_bits,)
        )

    def decode_blocks(self, code_bits: np.ndarray) -> np.ndarray:
        code_bits = np.asarray(code_bits, dtype=np.uint8)
        lead = code_bits.shape[:-1]
        out = []
        for transmitted in code_bits.reshape(-1, self.code_bits).tolist():
            word = tuple(1 - b for b in transmitted)
            try:
                value = self._reverse[word]
            except KeyError:
                raise ValueError(
                    "word is not a codeword of this LWC"
                ) from None
            out.append(
                [(value >> s) & 1 for s in range(self.data_bits - 1, -1, -1)]
            )
        return np.array(out, dtype=np.uint8).reshape(
            lead + (self.data_bits,)
        )

    def count_zeros(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        lead = data_bits.shape[:-1]
        out = [
            sum(self._words[_bits_value(row)])
            for row in data_bits.reshape(-1, self.data_bits).tolist()
        ]
        return np.array(out, dtype=np.int64).reshape(lead)

    def count_zeros_bytes(self, data: np.ndarray) -> np.ndarray:
        if self.data_bits != 8:
            raise ValueError("byte fast path requires data_bits == 8")
        data = np.asarray(data, dtype=np.uint8)
        lead = data.shape[:-1]
        out = [
            sum(sum(self._words[byte]) for byte in row)
            for row in data.reshape(-1, data.shape[-1]).tolist()
        ]
        return np.array(out, dtype=np.int64).reshape(lead)


REFERENCE_FACTORIES = {
    "dbi": ReferenceDBI,
    "3lwc": ReferenceThreeLWC,
    "milc": ReferenceMiLC,
    "cafo2": lambda: ReferenceCAFO(2),
    "cafo4": lambda: ReferenceCAFO(4),
    "lwc12": lambda: ReferenceKLWC(8, 12, 3),
}

KERNEL_FACTORIES = {
    name: registry.scheme_info(name).factory for name in REFERENCE_FACTORIES
}


@contextmanager
def swapped_codecs(factories):
    """Serve each scheme in ``factories`` from its factory for the block.

    Each swapped registry entry is a copy of the registered one with its
    own, empty instance cell, so the block builds its own codecs and the
    entries restored afterwards still hold the singletons they held
    before.  The process-wide zero-table cache is emptied on entry and
    on exit: a table one implementation built is never served to the
    other.
    """
    swapped = {
        name: dataclasses.replace(registry.scheme_info(name), factory=factory)
        for name, factory in factories.items()
    }
    reset_global_cache()
    try:
        with mock.patch.dict(registry._REGISTRY, swapped):
            yield
    finally:
        reset_global_cache()


def reference_codecs():
    """Run every registered codec on its reference for a ``with`` block."""
    return swapped_codecs(REFERENCE_FACTORIES)
