#!/usr/bin/env python
"""Coding explorer: see what each sparse code does to your data.

Feeds a few characteristic 64-byte lines (zeros, small integers,
doubles, ASCII text, random) through every coding scheme and prints the
zeros each one would put on a DDR4 POD bus, plus a worked example of a
single MiLC block with its codeword.

Usage::

    python examples/coding_explorer.py
"""

import numpy as np

from repro.coding import MiLCCode, line_zeros, raw_line_zeros, scheme_info
from repro.coding.bitops import format_bits
from repro.coding.pipeline import beat_layout

SCHEMES = ("dbi", "milc", "3lwc", "cafo2", "cafo4")


def sample_lines() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    lines = {}
    lines["all zeros"] = np.zeros(64, dtype=np.uint8)
    small = np.zeros((8, 8), dtype=np.uint8)
    small[:, 0] = rng.integers(0, 256, 8)  # little-endian uint64 < 256
    lines["small integers"] = small.reshape(64)
    fp = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    fp[:, 7] = 0x40  # shared exponent byte, like one double array
    fp[:, 6] = 0x09
    fp[:, :2] = 0  # "round" mantissas
    lines["double array"] = fp.reshape(64)
    text = (b"the quick brown fox jumps over the lazy dog "
            b"abcdefghijklmnopqrst")[:64].ljust(64, b" ")
    lines["ascii text"] = np.frombuffer(text, dtype=np.uint8).copy()
    lines["random bytes"] = rng.integers(0, 256, 64, dtype=np.uint8)
    return lines


def main() -> None:
    lines = sample_lines()

    header = f"{'line kind':16s} {'raw':>5s}"
    for scheme in SCHEMES:
        header += f" {scheme:>6s}"
    header += "   (zeros per 64-byte line; lower = less IO energy)"
    print(header)
    print("-" * len(header))
    for kind, line in lines.items():
        row = f"{kind:16s} {int(raw_line_zeros(line)[0]):5d}"
        for scheme in SCHEMES:
            row += f" {int(line_zeros(scheme, line)[0]):6d}"
        print(row)

    print()
    print("Burst formats (Section 4.4):")
    for name in SCHEMES:
        fmt = scheme_info(name)
        print(f"  {name:6s} burst length {fmt.burst_length:2d} "
              f"({fmt.bus_cycles} bus cycles), +{fmt.extra_latency} tCL")

    # A worked MiLC block: first beat of the double-array line.
    print()
    print("Worked MiLC example (first beat of the double-array line):")
    beat = beat_layout(lines["double array"][None, :])[0, :8]
    bits = np.unpackbits(beat)
    code = MiLCCode()
    word = code.encode(bits[None, :])[0]
    print(f"  beat bytes : {[hex(b) for b in beat]}")
    print(f"  data bits  : {format_bits(bits)}")
    print(f"  codeword   : {format_bits(word)}")
    print(f"  zeros      : {int(80 - word.sum())} of 80 "
          f"(vs {int(64 - bits.sum())} of 64 uncoded)")
    decoded = code.decode(word[None, :])[0]
    assert (decoded == bits).all(), "round-trip failed!"
    print("  round-trip : ok")


if __name__ == "__main__":
    main()
