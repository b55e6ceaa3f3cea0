"""Transition signaling for the unterminated LPDDR3 interface.

Section 4.5 / 5.3 of the paper: on an unterminated bus the energy cost
is per *wire flip*, not per transmitted 0.  Transition signaling
re-expresses each logical bit as the presence or absence of a voltage
transition, which converts the flip-minimisation problem into the same
static-value problem the terminated DDR4 interface has.  The encoder is
a single XOR with the previous wire value per lane; the decoder XORs the
current and previous wire values (Figure 15).

Polarity: the paper states (Section 2.1.2) that transition signaling
"can make the number of bit flips on the bus equal to the number of
transmitted zeroes", i.e. a logical **0** is sent as a transition and a
logical **1** as no-change.  With that polarity, every zero-minimising
code (DBI, 3-LWC, MiLC, CAFO) minimises LPDDR3 flip energy unchanged.
The opposite polarity (flip-per-1) is also provided for completeness.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TransitionSignaling"]


class TransitionSignaling:
    """Stateful per-lane transition encoder/decoder.

    Parameters
    ----------
    lanes:
        Number of parallel wires.
    flip_on:
        Which logical value is represented by a transition. The paper's
        MiL-on-LPDDR3 configuration uses ``0`` so that flips == zeros.
    """

    def __init__(self, lanes: int, flip_on: int = 0):
        if flip_on not in (0, 1):
            raise ValueError("flip_on must be 0 or 1")
        self.lanes = lanes
        self.flip_on = flip_on
        self._wire = np.zeros(lanes, dtype=np.uint8)

    @property
    def wire_state(self) -> np.ndarray:
        """Current voltage level on each lane (copy)."""
        return self._wire.copy()

    def reset(self, wire: np.ndarray | None = None) -> None:
        """Reset the lane state (all-low unless given)."""
        if wire is None:
            self._wire[:] = 0
        else:
            wire = np.asarray(wire, dtype=np.uint8)
            if wire.shape != (self.lanes,):
                raise ValueError(f"wire state must have shape ({self.lanes},)")
            self._wire = wire.copy()

    def _to_flips(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint8)
        return (1 - bits) if self.flip_on == 0 else bits

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode beats of logical bits into wire levels.

        ``bits`` has shape ``(n_beats, lanes)`` (or ``(lanes,)`` for a
        single beat).  Returns the wire level after each beat and advances
        the internal state.
        """
        bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
        if bits.shape[-1] != self.lanes:
            raise ValueError(f"expected {self.lanes} lanes, got {bits.shape[-1]}")
        flips = self._to_flips(bits)
        # Cumulative XOR down the beat axis starting from the wire state.
        levels = np.bitwise_xor.accumulate(flips, axis=0)
        levels ^= self._wire
        self._wire = levels[-1].copy()
        return levels

    def decode(self, levels: np.ndarray, prev_wire: np.ndarray | None = None) -> np.ndarray:
        """Recover logical bits from a sequence of wire levels.

        ``prev_wire`` is the level before the first beat (all-low default).
        """
        levels = np.atleast_2d(np.asarray(levels, dtype=np.uint8))
        prev = (
            np.zeros(self.lanes, dtype=np.uint8)
            if prev_wire is None
            else np.asarray(prev_wire, dtype=np.uint8)
        )
        shifted = np.vstack([prev[None, :], levels[:-1]])
        flips = levels ^ shifted
        return (1 - flips) if self.flip_on == 0 else flips

    def count_flips(self, bits: np.ndarray) -> int:
        """Wire flips caused by transmitting ``bits`` (without state change).

        With the default polarity this equals the number of logical 0s,
        which is why LPDDR3 reuses the DDR4 zero counts wholesale.
        """
        return int(self._to_flips(np.asarray(bits, dtype=np.uint8)).sum())
