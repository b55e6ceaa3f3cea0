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

Every codec entry additionally carries a *backend slot*: a mapping from
implementation name (``"reference"`` | ``"numpy"``, or a name another
package registers) to a factory for that implementation.
``register_codec`` installs the decorated factory as the entry's
default backend; alternative implementations self-register afterwards::

    @register_backend("dbi", "reference")
    class ReferenceDBI(CodingScheme):
        ...  # per-element Python oracle, bit-identical to the default

The active backend is chosen per process via the ``REPRO_CODEC_IMPL``
environment variable (the CLI's ``--codec-impl`` flag sets it), and a
scheme with no backend registered under the requested name silently
falls back to its default — an impl that another package registers for
some schemes can be selected process-wide without failing on the rest,
exactly like ``HAVE_NATIVE_POPCOUNT`` gating in
:mod:`repro.coding.bitops`.  All backends of a scheme must be
bit-identical; the cross-validation suite in
``tests/coding/test_backend_equivalence.py`` enforces it, which is what
lets zero tables (and therefore campaign cache entries) stay
byte-identical no matter which backend produced them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DEFAULT_IMPL",
    "IMPL_ENV",
    "KNOWN_IMPLS",
    "LINE_BYTES",
    "CodecInfo",
    "NoCodecError",
    "active_impl",
    "beat_layout",
    "check_lines",
    "codec_for",
    "codec_schemes",
    "real_schemes",
    "register_backend",
    "register_burst_format",
    "register_codec",
    "scheme_info",
    "scheme_items",
    "scheme_names",
    "unregister_backend",
    "unregister_scheme",
]

LINE_BYTES = 64

# Backend (implementation) selection -----------------------------------
#
# ``reference`` — pure-Python, per-element oracle (slow, obviously
#     correct; what the property suites cross-validate against).
# ``numpy``     — the vectorised batched kernels (default).
IMPL_ENV = "REPRO_CODEC_IMPL"
KNOWN_IMPLS = ("reference", "numpy")
DEFAULT_IMPL = "numpy"

# Impl names introduced by other packages' ``register_backend`` calls;
# they become valid ``REPRO_CODEC_IMPL`` values alongside KNOWN_IMPLS,
# and schemes without one fall back to their default backend.
_EXTRA_IMPLS: set[str] = set()


def _validate_impl(impl: str) -> str:
    if impl in KNOWN_IMPLS or impl in _EXTRA_IMPLS:
        return impl
    known = sorted(set(KNOWN_IMPLS) | _EXTRA_IMPLS)
    raise ValueError(
        f"unknown codec impl {impl!r} (from {IMPL_ENV} or --codec-impl); "
        f"known: {known}"
    )


def active_impl() -> str:
    """The backend name selected for this process.

    Reads ``REPRO_CODEC_IMPL`` on every call (so tests can monkeypatch
    it) and validates against the known implementation names; empty or
    unset means :data:`DEFAULT_IMPL`.
    """
    return _validate_impl(os.environ.get(IMPL_ENV, "").strip() or DEFAULT_IMPL)


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
        instance for the *default* backend; ``None`` for
        burst-format-only entries.
    count_fn:
        Optional ``(n, 64) lines -> (n,) zeros`` override used instead
        of a codec (how ``raw`` counts uncoded zeros).
    description:
        One line for ``repro list`` and generated documentation.
    default_impl:
        Backend name the registering module's ``factory`` implements
        (``"numpy"`` for every shipped codec) — also the automatic
        fallback when the requested impl has no registration here.
    backends:
        Mutable impl-name -> factory mapping.  Seeded with
        ``{default_impl: factory}``; :func:`register_backend` adds more.
    """

    name: str
    burst_length: int
    extra_latency: int
    layout: str = "line"
    pins: int = 64
    factory: Optional[Callable] = None
    count_fn: Optional[Callable] = None
    description: str = ""
    default_impl: str = DEFAULT_IMPL
    # Mutable cells so the dataclass can stay frozen (their contents are
    # not part of identity): the backend slot, and per-impl lazily built
    # codec singletons.
    backends: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )
    _cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if self.factory is not None and self.default_impl not in self.backends:
            self.backends[self.default_impl] = self.factory

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
        """The codec instance for the :func:`active_impl` backend.

        Built lazily, once per backend; :class:`NoCodecError` if the
        entry is burst-format-only.
        """
        return self.codec_impl(None)

    def codec_impl(self, impl: Optional[str] = None):
        """The codec instance for a specific backend.

        ``impl=None`` means :func:`active_impl`.  A scheme without a
        registration under the requested impl falls back to its
        ``default_impl`` instead of failing; the instance is cached
        under the *resolved* impl, so the fallback shares the default's
        singleton.
        """
        if self.factory is None:
            raise NoCodecError(
                f"no codec registered for scheme {self.name!r}; it is a "
                "burst-format-only entry"
            )
        impl = _validate_impl(impl) if impl else active_impl()
        resolved = impl if impl in self.backends else self.default_impl
        instance = self._cache.get(resolved)
        if instance is None:
            instance = self.backends[resolved]()
            self._cache[resolved] = instance
        return instance

    def line_zeros(self, lines: np.ndarray) -> np.ndarray:
        """Zeros on the bus per ``(n, 64)`` line under this scheme."""
        lines = check_lines(lines)
        if self.count_fn is not None:
            return self.count_fn(lines)
        if self.factory is None:
            raise NoCodecError(
                f"no codec registered for scheme {self.name!r}; it is a "
                "burst-format-only entry (Figure 20 sweep point)"
            )
        arranged = beat_layout(lines) if self.layout == "beat" else lines
        codec = self.codec
        counter = getattr(codec, "line_zeros", None) or getattr(
            codec, "count_zeros_bytes", None
        )
        if counter is not None:
            # The kernel contract: every CodingScheme inherits a
            # trace-level line_zeros (byte-table fast paths override
            # count_zeros_bytes, which line_zeros dispatches to).
            return counter(arranged)
        # Generic fallback for duck-typed codecs that predate the kernel
        # contract: unpack to bits, count per block, sum per line.
        from .bitops import bytes_to_bits

        bits = bytes_to_bits(arranged)
        blocks = bits.reshape(bits.shape[0], -1, codec.data_bits)
        return codec.count_zeros(blocks).sum(axis=-1, dtype=np.int64)


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


def register_backend(scheme: str, impl: str):
    """Decorator attaching an alternative backend to a registered codec.

    ``impl`` is the implementation name the backend answers to —
    one of :data:`KNOWN_IMPLS`, or a new name (which then becomes a
    valid ``REPRO_CODEC_IMPL`` value).  The decorated object is a
    zero-argument factory (usually the class itself) producing an
    instance that must be *bit-identical* to the scheme's default
    backend on every input; the cross-validation property suite holds it
    to that.  Registration is last-wins (so module reloads are
    harmless) and clears any cached instance for the impl::

        @register_backend("dbi", "reference")
        class ReferenceDBI(CodingScheme):
            ...

    Raises :class:`NoCodecError` when ``scheme`` is burst-format-only
    (there is no default codec to be equivalent to).
    """
    if not impl or not impl.isidentifier():
        raise ValueError(f"impl must be an identifier, got {impl!r}")

    def deco(obj):
        info = scheme_info(scheme)
        if info.factory is None:
            raise NoCodecError(
                f"scheme {scheme!r} is burst-format-only; backends can "
                "only be attached to codec entries"
            )
        info.backends[impl] = obj
        info._cache.pop(impl, None)
        _EXTRA_IMPLS.add(impl)
        return obj

    return deco


def unregister_backend(scheme: str, impl: str) -> None:
    """Detach a backend (tests and interactive experimentation).

    The scheme's default backend cannot be removed — drop the whole
    entry with :func:`unregister_scheme` instead.
    """
    info = scheme_info(scheme)
    if impl == info.default_impl:
        raise ValueError(
            f"{impl!r} is the default backend of {scheme!r}; use "
            "unregister_scheme to drop the entry"
        )
    info.backends.pop(impl, None)
    info._cache.pop(impl, None)


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


def codec_for(name: str, impl: Optional[str] = None):
    """The codec instance for ``name`` (optionally a specific backend).

    ``impl=None`` selects the process-wide :func:`active_impl`.  Raises
    ``KeyError`` for unknown names and :class:`NoCodecError` (a
    ``KeyError`` subclass) for registered burst-format-only entries.
    """
    return scheme_info(name).codec_impl(impl)


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
