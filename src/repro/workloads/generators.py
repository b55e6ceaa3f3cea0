"""Address-stream primitives the synthetic benchmarks are built from.

Every primitive returns parallel numpy arrays ``(addresses, is_write)``
describing one core's accesses in program order.  The primitives are
deliberately simple and composable; :mod:`repro.workloads.benchmarks`
assembles them into the eleven Table 3 workloads.

All primitives take an explicit ``rng`` so benchmark traces are fully
reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sequential_stream",
    "random_access",
    "strided_sweep",
    "gather_stream",
    "tile_reuse",
    "update_pairs",
    "interleave",
    "ARRIVAL_KINDS",
    "poisson_gaps",
    "uniform_gaps",
    "bursty_gaps",
    "arrival_gaps",
]

LINE = 64


def sequential_stream(
    rng: np.random.Generator,
    count: int,
    base: int,
    span_bytes: int,
    element_bytes: int = 8,
    write_fraction: float = 0.0,
    start_offset: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A linear sweep through ``[base, base + span)``, wrapping around."""
    if count <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    start = (
        int(rng.integers(0, max(1, span_bytes // element_bytes)))
        if start_offset is None
        else start_offset
    )
    idx = (start + np.arange(count, dtype=np.int64)) % max(
        1, span_bytes // element_bytes
    )
    addresses = base + idx * element_bytes
    is_write = rng.random(count) < write_fraction
    return addresses, is_write


def random_access(
    rng: np.random.Generator,
    count: int,
    base: int,
    span_bytes: int,
    element_bytes: int = 8,
    write_fraction: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly random element accesses over a region (GUPS-style)."""
    elements = max(1, span_bytes // element_bytes)
    idx = rng.integers(0, elements, size=count)
    addresses = base + idx * element_bytes
    is_write = rng.random(count) < write_fraction
    return addresses.astype(np.int64), is_write


def strided_sweep(
    rng: np.random.Generator,
    count: int,
    base: int,
    span_bytes: int,
    stride_bytes: int,
    element_bytes: int = 8,
    write_fraction: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """A constant-stride walk (FFT butterflies, multigrid levels)."""
    elements = max(1, span_bytes // element_bytes)
    stride_elems = max(1, stride_bytes // element_bytes)
    idx = (np.arange(count, dtype=np.int64) * stride_elems) % elements
    addresses = base + idx * element_bytes
    is_write = rng.random(count) < write_fraction
    return addresses, is_write


def gather_stream(
    rng: np.random.Generator,
    count: int,
    seq_base: int,
    seq_span: int,
    gather_base: int,
    gather_span: int,
    gather_ratio: float = 0.5,
    write_fraction: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential index stream interleaved with random gathers (CG).

    Models ``y[i] += A[j] * x[col[j]]``: the matrix and column arrays
    stream sequentially while the source-vector reads scatter randomly.
    """
    seq_count = count - int(count * gather_ratio)
    seq_addr, seq_wr = sequential_stream(
        rng, seq_count, seq_base, seq_span, write_fraction=write_fraction
    )
    g_count = count - seq_count
    g_addr, g_wr = random_access(rng, g_count, gather_base, gather_span)
    return interleave([(seq_addr, seq_wr), (g_addr, g_wr)])


def tile_reuse(
    rng: np.random.Generator,
    count: int,
    base: int,
    span_bytes: int,
    tile_bytes: int,
    reuse_factor: int,
    write_fraction: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Blocked-algorithm pattern: sweep a tile ``reuse_factor`` times,
    then move to the next tile (matrix multiply)."""
    tiles = max(1, span_bytes // tile_bytes)
    per_tile = max(1, (tile_bytes // 8) * reuse_factor)
    addresses = np.empty(count, dtype=np.int64)
    produced = 0
    tile = int(rng.integers(0, tiles))
    while produced < count:
        take = min(per_tile, count - produced)
        offsets = (np.arange(take, dtype=np.int64) * 8) % tile_bytes
        addresses[produced : produced + take] = base + tile * tile_bytes + offsets
        produced += take
        tile = (tile + 1) % tiles
    is_write = rng.random(count) < write_fraction
    return addresses, is_write


def update_pairs(
    rng: np.random.Generator,
    count: int,
    base: int,
    span_bytes: int,
    element_bytes: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Read-modify-write pairs at random elements (GUPS updates)."""
    pairs = count // 2
    elements = max(1, span_bytes // element_bytes)
    idx = rng.integers(0, elements, size=pairs)
    addresses = np.repeat(base + idx * element_bytes, 2).astype(np.int64)
    is_write = np.tile(np.array([False, True]), pairs)
    return addresses, is_write


# ----------------------------------------------------------------------
# Arrival processes (think-time gap samplers for synthesized traffic)
# ----------------------------------------------------------------------
#
# The Table 3 benchmarks derive their think times from arithmetic
# intensity through the cache hierarchy; scenario traffic
# (repro.workloads.mixed) instead *samples* inter-arrival gaps from an
# explicit stochastic process.  Every sampler returns ``count`` int64
# DRAM-cycle gaps with the requested mean, so sweeping the process kind
# at a fixed ``mean_gap`` isolates the effect of arrival *shape* on bus
# utilisation and look-ahead windows.

ARRIVAL_KINDS = ("poisson", "uniform", "bursty")


def poisson_gaps(
    rng: np.random.Generator, count: int, mean_gap: float
) -> np.ndarray:
    """Memoryless arrivals: geometric gaps with mean ``mean_gap``.

    The discrete-time analogue of a Poisson process — each DRAM cycle
    independently starts a new arrival with probability
    ``1 / (mean_gap + 1)`` — so gaps of zero (back-to-back records) are
    as common as an open-loop "millions of users" aggregate makes them.
    """
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    if mean_gap < 0:
        raise ValueError("mean_gap must be non-negative")
    if mean_gap == 0:
        return np.zeros(count, dtype=np.int64)
    p = 1.0 / (float(mean_gap) + 1.0)
    # numpy's geometric counts trials (>= 1); gaps count idle cycles.
    return rng.geometric(p, size=count).astype(np.int64) - 1


def uniform_gaps(
    rng: np.random.Generator,
    count: int,
    mean_gap: float,
    jitter: float = 1.0,
) -> np.ndarray:
    """Paced arrivals: gaps uniform in ``mean_gap * [1-jitter, 1+jitter]``.

    ``jitter=0`` degenerates to a fixed-rate clocked stream; the default
    full jitter keeps the mean while spreading gaps over
    ``[0, 2*mean_gap]``.
    """
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    if mean_gap < 0:
        raise ValueError("mean_gap must be non-negative")
    if not 0.0 <= jitter <= 1.0:
        raise ValueError("jitter must be in [0, 1]")
    lo = float(mean_gap) * (1.0 - jitter)
    hi = float(mean_gap) * (1.0 + jitter)
    return np.rint(rng.uniform(lo, hi, size=count)).astype(np.int64)


def bursty_gaps(
    rng: np.random.Generator,
    count: int,
    mean_gap: float,
    burst: int = 8,
) -> np.ndarray:
    """On/off arrivals: geometric bursts of back-to-back records.

    Records arrive in bursts whose lengths are geometric with mean
    ``burst``; within a burst gaps are zero, and each burst is preceded
    by one long idle gap sized so the overall mean stays ``mean_gap``.
    This is the shape that opens the empty look-ahead windows MiL's
    long code needs (compare ``CoreAccessStream.burst_lines``), but as
    an explicit traffic knob instead of a benchmark property.
    """
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    if mean_gap < 0:
        raise ValueError("mean_gap must be non-negative")
    if burst < 1:
        raise ValueError("burst must be >= 1")
    # Geometric burst membership: record i starts a new burst with
    # probability 1/burst (the first record always does).
    starts = rng.random(count) < (1.0 / float(burst))
    starts[0] = True
    n_bursts = int(starts.sum())
    # Each burst head carries the idle time of its whole burst: the
    # expected records per burst is ``count / n_bursts`` exactly, so
    # scaling by it preserves the configured mean gap.
    per_burst = float(mean_gap) * count / n_bursts
    gaps = np.zeros(count, dtype=np.int64)
    idle = rng.geometric(1.0 / (per_burst + 1.0), size=n_bursts) - 1
    gaps[starts] = idle.astype(np.int64)
    return gaps


def arrival_gaps(
    rng: np.random.Generator,
    count: int,
    kind: str,
    mean_gap: float,
    burst: int = 8,
) -> np.ndarray:
    """Dispatch to the named arrival sampler (:data:`ARRIVAL_KINDS`)."""
    kind = kind.lower()
    if kind == "poisson":
        return poisson_gaps(rng, count, mean_gap)
    if kind == "uniform":
        return uniform_gaps(rng, count, mean_gap)
    if kind == "bursty":
        return bursty_gaps(rng, count, mean_gap, burst=burst)
    raise ValueError(
        f"unknown arrival kind {kind!r}; known: {list(ARRIVAL_KINDS)}"
    )


def interleave(
    streams: list[tuple[np.ndarray, np.ndarray]],
    chunk: int = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge several (addresses, is_write) streams in chunked round-robin.

    Round ``r`` takes elements ``[r*chunk, (r+1)*chunk)`` of every stream
    still running, in stream order: one stable sort by (round, stream).
    """
    streams = [s for s in streams if len(s[0])]
    if not streams:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    lengths = [len(a) for a, _ in streams]
    stream_id = np.repeat(np.arange(len(streams)), lengths)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    rounds = (np.arange(len(stream_id)) - starts) // chunk
    order = np.lexsort((stream_id, rounds))
    addrs = np.concatenate([a for a, _ in streams])
    writes = np.concatenate([w for _, w in streams])
    return addrs[order], writes[order]
