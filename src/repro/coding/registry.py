"""The single source of truth for coding-scheme knowledge.

Before this module existed, scheme knowledge was smeared across seven
layers: codec singletons and an if-chain in ``pipeline.line_zeros``, the
hand-maintained ``BURST_FORMATS`` dict, the ``POLICIES`` tuple plus
``_REAL_SCHEMES`` in ``repro.core.framework``, and ad-hoc lookups in the
controller, config, decision, fuzz, and CLI layers.  Adding one code
meant editing all of them.  Now a codec module declares everything in
one place::

    @register_codec("nzc", burst_length=9, extra_latency=1,
                    layout="line", pins=72,
                    description="(64, 72) near-zero code")
    class NZCCode(CodingScheme):
        ...

and every downstream surface — burst formats, zero-table precompute,
``MiLConfig`` validation, CLI choices, energy accounting — derives its
view from the registry.  ``repro.core.policies`` is the parallel
registry for decision policies.

Entries come in two flavours:

* **codecs** (``register_codec``): a real :class:`CodingScheme` behind
  the name; ``has_codec`` is true, zero tables can be built, and
  :func:`codec_for` returns the (lazily constructed, cached) instance.
* **burst-format-only** entries (``register_burst_format``): a burst
  length with no code occupying it — the Figure 20 ``bl12``/``bl14``
  sweep points, or ``raw`` (which has no codec object but *does* have a
  zero-count path, supplied via ``count_fn``).  Asking these for a
  codec raises :class:`NoCodecError` with a message that names the
  scheme instead of pretending it is unknown.

The ``layout`` field captures the line-vs-beat distinction of
Figure 12: ``"line"`` codecs (DBI, the LWC family) consume bytes in
cache-line order; ``"beat"`` codecs (MiLC, CAFO) operate on the 8x8
squares that appear when the line is rearranged into bus-beat order,
which is where the spatial correlation they exploit lives.

Every codec entry has exactly one implementation: the vectorised
kernel its module registers.  The per-element pure-Python references
that hold the kernels to bit-exact agreement live with the tests
(``tests/codec_oracle.py``), never on the run path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "LINE_BYTES",
    "CodecInfo",
    "NoCodecError",
    "beat_layout",
    "check_lines",
    "codec_for",
    "codec_schemes",
    "real_schemes",
    "register_burst_format",
    "register_codec",
    "scheme_info",
    "scheme_items",
    "scheme_names",
    "unregister_scheme",
]

LINE_BYTES = 64


class NoCodecError(KeyError):
    """A known burst format has no codec registered behind it."""


def check_lines(lines: np.ndarray) -> np.ndarray:
    """Normalise input to ``(n, 64)`` uint8 cache lines."""
    lines = np.asarray(lines, dtype=np.uint8)
    if lines.ndim == 1:
        lines = lines[None, :]
    if lines.shape[-1] != LINE_BYTES:
        raise ValueError(f"expected {LINE_BYTES}-byte lines, got {lines.shape[-1]}")
    return lines


def beat_layout(lines: np.ndarray) -> np.ndarray:
    """Rearrange lines into bus-beat order (Figure 12(a)).

    A x8 rank ships one byte per chip per beat and chip ``j`` stores
    byte ``j`` of every 64-bit word, so beat ``p`` carries byte ``p`` of
    words 0..7 — the same byte position across eight consecutive words.
    MiLC and CAFO operate on those 64-bit beats as 8x8 squares, which is
    exactly where the spatial correlation they exploit lives (adjacent
    doubles share exponent bytes, adjacent ints share zero bytes).
    """
    lines = check_lines(lines)
    n = lines.shape[0]
    return (
        lines.reshape(n, 8, 8).transpose(0, 2, 1).reshape(n, LINE_BYTES)
    )


@dataclass(frozen=True)
class CodecInfo:
    """One registered scheme: burst packing plus (optionally) a codec.

    Attributes
    ----------
    name:
        Short scheme name (``"dbi"``, ``"milc"``, ``"bl12"``).
    burst_length:
        Beats per transaction (two beats per DRAM clock).
    extra_latency:
        Codec cycles folded into tCL/tWL while the scheme is active.
    layout:
        ``"line"`` (codec consumes cache-line byte order) or ``"beat"``
        (codec consumes bus-beat order; see :func:`beat_layout`).
    pins:
        Data pins the coded burst occupies (64, or 72 with the DBI
        pins) — the width side of the ``code_bits <= pins x
        burst_length`` capacity invariant.
    factory:
        Zero-argument callable building the :class:`CodingScheme`
        instance; ``None`` for burst-format-only entries.
    count_fn:
        Optional ``(n, 64) lines -> (n,) zeros`` override used instead
        of a codec (how ``raw`` counts uncoded zeros).
    description:
        One line for ``repro list`` and generated documentation.
    """

    name: str
    burst_length: int
    extra_latency: int
    layout: str = "line"
    pins: int = 64
    factory: Optional[Callable] = None
    count_fn: Optional[Callable] = None
    description: str = ""
    # Mutable cell holding the lazily built codec, so the dataclass can
    # stay frozen.  Not an __init__ field: an entry derived with
    # ``dataclasses.replace`` gets a fresh, empty cell of its own.
    _instance: list = field(
        default_factory=list, init=False, repr=False, compare=False,
        hash=False,
    )

    @property
    def bus_cycles(self) -> int:
        """DRAM clock cycles of data-bus occupancy (DDR: 2 beats/cycle)."""
        return (self.burst_length + 1) // 2

    @property
    def has_codec(self) -> bool:
        """A zero-count path exists (a codec instance, or ``count_fn``)."""
        return self.factory is not None or self.count_fn is not None

    @property
    def codec(self):
        """The codec instance, built lazily from ``factory`` on first use.

        :class:`NoCodecError` if the entry is burst-format-only.
        """
        if not self._instance:
            if self.factory is None:
                raise NoCodecError(
                    f"no codec registered for scheme {self.name!r}; it is "
                    "a burst-format-only entry"
                )
            self._instance.append(self.factory())
        return self._instance[0]

    def line_zeros(self, lines: np.ndarray) -> np.ndarray:
        """Zeros on the bus per ``(n, 64)`` line under this scheme."""
        lines = check_lines(lines)
        if self.count_fn is not None:
            return self.count_fn(lines)
        codec = self.codec
        arranged = beat_layout(lines) if self.layout == "beat" else lines
        return codec.line_zeros(arranged)


_REGISTRY: dict[str, CodecInfo] = {}


def register_codec(
    name: str,
    *,
    burst_length: int,
    extra_latency: int,
    layout: str = "line",
    pins: int = 64,
    description: str = "",
    count_fn: Callable | None = None,
):
    """Class/factory decorator registering a codec under ``name``.

    The decorated object must be a zero-argument callable producing a
    :class:`~repro.coding.base.CodingScheme` — the class itself when its
    constructor takes no arguments, or a factory closure for
    parameterised codes (``lambda: CAFOCode(iterations=2)``).  The
    instance is built lazily, once, on first use.
    """
    if layout not in ("line", "beat"):
        raise ValueError(f"layout must be 'line' or 'beat', not {layout!r}")

    def deco(obj):
        _register(CodecInfo(
            name=name,
            burst_length=burst_length,
            extra_latency=extra_latency,
            layout=layout,
            pins=pins,
            factory=obj,
            count_fn=count_fn,
            description=description,
        ))
        return obj

    return deco


def register_burst_format(
    name: str,
    *,
    burst_length: int,
    extra_latency: int,
    pins: int = 64,
    description: str = "",
    count_fn: Callable | None = None,
) -> CodecInfo:
    """Register a codec-less burst format (or a ``count_fn``-only scheme)."""
    info = CodecInfo(
        name=name,
        burst_length=burst_length,
        extra_latency=extra_latency,
        pins=pins,
        count_fn=count_fn,
        description=description,
    )
    _register(info)
    return info


def _register(info: CodecInfo) -> None:
    if info.burst_length < 1:
        raise ValueError(f"{info.name}: burst_length must be positive")
    if info.extra_latency < 0:
        raise ValueError(f"{info.name}: extra_latency must be non-negative")
    existing = _REGISTRY.get(info.name)
    if existing is not None and not _same_registration(existing, info):
        raise ValueError(
            f"coding scheme {info.name!r} is already registered with "
            "different parameters; unregister_scheme() first"
        )
    _REGISTRY[info.name] = info


def _same_registration(a: CodecInfo, b: CodecInfo) -> bool:
    """Idempotent re-registration (module reloads) is tolerated."""
    return (
        a.burst_length == b.burst_length
        and a.extra_latency == b.extra_latency
        and a.layout == b.layout
        and a.pins == b.pins
    )


def unregister_scheme(name: str) -> None:
    """Remove a registration (tests and interactive experimentation)."""
    _REGISTRY.pop(name, None)


def scheme_info(name: str) -> CodecInfo:
    """The registry entry for ``name``; KeyError names the known set."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown coding scheme {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def codec_for(name: str):
    """The codec instance registered under ``name``.

    Raises ``KeyError`` for unknown names and :class:`NoCodecError` (a
    ``KeyError`` subclass) for registered burst-format-only entries.
    """
    return scheme_info(name).codec


def scheme_names() -> tuple[str, ...]:
    """Every registered scheme name, in registration order."""
    return tuple(_REGISTRY)


def scheme_items() -> tuple[tuple[str, CodecInfo], ...]:
    """(name, info) pairs in registration order."""
    return tuple(_REGISTRY.items())


def real_schemes() -> tuple[str, ...]:
    """Schemes with a zero-count path (codec or ``count_fn``).

    These are the schemes :func:`~repro.coding.pipeline.precompute_line_zeros`
    can build tables for — what the energy model and the write
    optimization consume.
    """
    return tuple(n for n, i in _REGISTRY.items() if i.has_codec)


def codec_schemes() -> tuple[str, ...]:
    """Schemes backed by an actual :class:`CodingScheme` instance."""
    return tuple(n for n, i in _REGISTRY.items() if i.factory is not None)
