"""The eleven-benchmark suite of Table 3, as synthetic workloads.

Each entry reproduces the two properties of its real counterpart that
MiL's results depend on (see DESIGN.md for the substitution argument):

* the *memory-access behaviour* — footprint vs. the L2, address-stream
  shape, read/write mix, arithmetic intensity, and dependence structure,
  which together set bus utilisation and latency sensitivity; and
* the *data-value statistics* — what the transferred bytes look like,
  which set how much any sparse code can save.

The ``insts_per_access`` knob is each benchmark's arithmetic intensity
(non-memory instructions per memory access); footprints are chosen
relative to the 4 MB/2 MB L2s so the bus-utilisation ordering matches
Figure 5: MM and STRMATCH light; MG, FFT, SCALPARC, SWIM, OCEAN, CG and
GUPS memory-intensive.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..system.machine import SystemConfig
from .datamodel import DataModel
from .generators import (
    gather_stream,
    interleave,
    random_access,
    sequential_stream,
    strided_sweep,
    tile_reuse,
    update_pairs,
)
from .trace import MemoryTrace

__all__ = [
    "BenchmarkSpec",
    "BENCHMARKS",
    "BENCHMARK_ORDER",
    "MEMORY_INTENSIVE",
    "get_benchmark",
    "known_benchmark",
    "validate_benchmark",
    "build_trace",
    "clear_trace_cache",
]

MB = 1 << 20

# Paper's presentation order (Figures 4/5: utilisation low -> high).
BENCHMARK_ORDER = (
    "MM", "STRMATCH", "HISTOGRAM", "ART", "MG", "FFT",
    "SCALPARC", "SWIM", "OCEAN", "CG", "GUPS",
)

MEMORY_INTENSIVE = ("MG", "FFT", "SCALPARC", "SWIM", "OCEAN", "CG", "GUPS")


@dataclass(frozen=True)
class BenchmarkSpec:
    """One Table 3 workload."""

    name: str
    suite: str
    input_desc: str
    insts_per_access: float
    dependent_fraction: float
    data_mix: dict = field(hash=False)
    build: Callable = field(hash=False, compare=False)
    burst_lines: int = 1  # memory-phase burstiness (see CoreAccessStream)
    access_scale: float = 1.0  # trace-size equaliser (heavy-traffic
    # benchmarks touch more lines per access, so they use fewer accesses)

    def _seed_tag(self) -> int:
        # Stable across processes (unlike hash(), which Python salts).
        return zlib.crc32(self.name.encode()) & 0xFFFF

    def data_model(self) -> DataModel:
        return DataModel(self.data_mix, seed=self._seed_tag())

    def streams(
        self, config: SystemConfig, seed: int, accesses_per_core: int
    ) -> list:
        # Imported here: repro.system imports repro.workloads.trace, so a
        # module-level import back into repro.system would be circular.
        from ..system.hierarchy import CoreAccessStream

        streams = []
        for core in range(config.cores):
            rng = np.random.default_rng((seed, core, self._seed_tag()))
            addr, wr = self.build(rng, core, accesses_per_core)
            streams.append(
                CoreAccessStream(
                    addr, wr,
                    insts_per_access=self.insts_per_access,
                    dependent_fraction=self.dependent_fraction,
                    burst_lines=self.burst_lines,
                )
            )
        return streams


PAGE = 8192
N_CORES = 8


def _array_base(index: int) -> int:
    """Base address of shared array ``index``.

    Bases sit at odd page multiples so different arrays decorrelate in
    the channel/rank/bank address bits — real allocators never hand out
    192 MB-aligned arrays, and bank-aligned bases would make every
    stream collide in one bank.
    """
    return index * 40961 * PAGE  # 40961 is odd: bank bits vary per array


def _chunk(core: int, span_bytes: int, element_bytes: int = 8) -> int:
    """Element offset where ``core``'s chunk of a shared array starts.

    Parallel loops partition iterations across threads, so core ``i``
    sweeps the ``i``-th chunk; a small page-odd skew keeps cores from
    marching bank-synchronously.
    """
    elements = span_bytes // element_bytes
    skew = core * 131 * (PAGE // element_bytes)
    return (core * elements) // N_CORES + skew


# ----------------------------------------------------------------------
# Per-benchmark access-stream builders (arrays shared across cores)
# ----------------------------------------------------------------------

def _gups(rng, core, n):
    # HPCC RandomAccess: read-modify-write at random slots of one table.
    return update_pairs(rng, n, base=_array_base(0), span_bytes=256 * MB)


def _cg(rng, core, n):
    # NAS CG: streaming matrix/rowptr + random gathers into the vector.
    span = 160 * MB
    seq = sequential_stream(
        rng, n - int(n * 0.45), _array_base(1), span,
        write_fraction=0.06, start_offset=_chunk(core, span),
    )
    gather = random_access(rng, int(n * 0.45), _array_base(2), 24 * MB)
    return interleave([seq, gather])


def _mg(rng, core, n):
    # NAS MG: V-cycle sweeps at several grid resolutions.
    levels = []
    remaining = n
    for level, stride in enumerate((8, 8, 8, 8)):
        take = remaining // 2 if level < 3 else remaining
        remaining -= take
        span = 36 * MB >> level
        # Restriction reads the fine grid, prolongation writes it:
        # alternate levels carry the writes.
        levels.append(
            strided_sweep(
                rng, take, _array_base(3 + level) + 8 * _chunk(core, span),
                span, stride_bytes=stride,
                write_fraction=0.55 if level % 2 else 0.05,
            )
        )
    return interleave(levels, chunk=16)


def _scalparc(rng, core, n):
    # NuMineBench ScalParC: attribute-list scans + random tree updates.
    span = 96 * MB
    scan = sequential_stream(
        rng, (2 * n) // 3, _array_base(8), span,
        write_fraction=0.15, start_offset=_chunk(core, span),
    )
    tree = random_access(rng, n - (2 * n) // 3, _array_base(9), 32 * MB,
                         write_fraction=0.3)
    return interleave([scan, tree], chunk=8)


def _histogram(rng, core, n):
    # Phoenix histogram: stream the image, bump counters in a small table.
    span = 128 * MB
    image = sequential_stream(
        rng, (5 * n) // 6, _array_base(10), span,
        start_offset=_chunk(core, span),
    )
    counters = random_access(rng, n - (5 * n) // 6, _array_base(11),
                             MB // 2, write_fraction=0.5)
    return interleave([image, counters], chunk=10)


def _mm(rng, core, n):
    # Phoenix matrix multiply, blocked: the tile set lives in the L1/L2,
    # so memory traffic is rare tile refills.
    return tile_reuse(
        rng, n, base=_array_base(12) + core * 193 * PAGE,
        span_bytes=70 * MB, tile_bytes=24 * 1024, reuse_factor=8,
        write_fraction=0.04,
    )


def _strmatch(rng, core, n):
    # Phoenix string match: one pass over the file, heavy per-byte work.
    span = 50 * MB
    return sequential_stream(
        rng, n, _array_base(13), span, write_fraction=0.02,
        start_offset=_chunk(core, span),
    )


def _art(rng, core, n):
    # SPEC OMP art: repeated sweeps over the F2 neural-net arrays.
    sweeps = []
    for i in range(3):
        span = 12 * MB
        write_fraction = 0.85 if i == 2 else 0.02  # weights updated once
        sweeps.append(
            sequential_stream(
                rng, n // 3, _array_base(14 + i), span,
                write_fraction=write_fraction,
                start_offset=_chunk(core, span),
            )
        )
    return interleave(sweeps, chunk=12)


def _swim(rng, core, n):
    # SPEC OMP swim: shallow-water stencil; the input grids (u, v, p)
    # are read-only within a sweep, the output grids are fully written.
    grids = []
    for i in range(4):
        span = 48 * MB
        write_fraction = 0.85 if i >= 2 else 0.0
        grids.append(
            sequential_stream(
                rng, n // 4, _array_base(18 + i), span,
                write_fraction=write_fraction,
                start_offset=_chunk(core, span),
            )
        )
    return interleave(grids, chunk=4)


def _fft(rng, core, n):
    # SPLASH-2 FFT: butterfly passes with doubling strides, in place.
    passes = []
    remaining = n
    span = 64 * MB
    for level, stride in enumerate((16, 16, 16, 128)):
        take = remaining // 2 if level < 3 else remaining
        remaining -= take
        passes.append(
            strided_sweep(
                rng, take, _array_base(22) + 8 * _chunk(core, span),
                span, stride_bytes=stride, write_fraction=0.45,
            )
        )
    return interleave(passes, chunk=8)


def _ocean(rng, core, n):
    # SPLASH-2 OCEAN: red-black sweeps; four source grids are read,
    # two destination grids are written in place.
    grids = []
    for i in range(6):
        span = 24 * MB
        write_fraction = 0.9 if i >= 4 else 0.05
        grids.append(
            sequential_stream(
                rng, n // 6, _array_base(23 + i), span,
                write_fraction=write_fraction,
                start_offset=_chunk(core, span),
            )
        )
    return interleave(grids, chunk=3)


# ----------------------------------------------------------------------
# The suite (Table 3), with data-value mixtures per benchmark
# ----------------------------------------------------------------------

BENCHMARKS: dict[str, BenchmarkSpec] = {}


def _register(spec: BenchmarkSpec) -> None:
    BENCHMARKS[spec.name] = spec


_register(BenchmarkSpec(
    "GUPS", "HPCC", "2^25 table, 1048576 updates",
    insts_per_access=2.3, dependent_fraction=0.10,
    data_mix={"int4": 0.26, "int2": 0.18, "zero": 0.42, "random": 0.14},
    build=_gups, access_scale=0.7,
))
_register(BenchmarkSpec(
    "CG", "NAS OpenMP", "Class A",
    insts_per_access=5.4, dependent_fraction=0.08,
    data_mix={"fp": 0.48, "int4": 0.16, "zero": 0.36},
    build=_cg, access_scale=0.7,
))
_register(BenchmarkSpec(
    "MG", "NAS OpenMP", "Class A",
    insts_per_access=31.0, dependent_fraction=0.0,
    data_mix={"fp": 0.60, "zero": 0.40},
    build=_mg, access_scale=1.0,
))
_register(BenchmarkSpec(
    "SCALPARC", "NuMineBench", "F26-A32-D125K.tab",
    insts_per_access=10.8, dependent_fraction=0.15,
    data_mix={"int2": 0.28, "int4": 0.22, "int1": 0.14, "zero": 0.32,
              "random": 0.04},
    build=_scalparc, access_scale=0.8,
))
_register(BenchmarkSpec(
    "HISTOGRAM", "Phoenix", "small",
    insts_per_access=47.0, dependent_fraction=0.0,
    data_mix={"int1": 0.40, "int4": 0.14, "zero": 0.36, "text": 0.10},
    build=_histogram,
))
_register(BenchmarkSpec(
    "MM", "Phoenix", "3000 x 3000 matrix",
    insts_per_access=120.0, dependent_fraction=0.0,
    data_mix={"int2": 0.40, "int1": 0.18, "zero": 0.36, "fp": 0.06},
    build=_mm, access_scale=2.0,
))
_register(BenchmarkSpec(
    "STRMATCH", "Phoenix", "50MB file",
    insts_per_access=60.0, dependent_fraction=0.0,
    data_mix={"text": 0.48, "zero": 0.34, "int1": 0.18},
    build=_strmatch, access_scale=1.5,
))
_register(BenchmarkSpec(
    "ART", "SPEC OpenMP", "MinneSpec-Large",
    insts_per_access=29.0, dependent_fraction=0.0,
    data_mix={"fp": 0.54, "zero": 0.32, "int2": 0.14},
    build=_art,
))
_register(BenchmarkSpec(
    "SWIM", "SPEC OpenMP", "MinneSpec-Large",
    insts_per_access=17.5, dependent_fraction=0.0,
    data_mix={"fp": 0.66, "zero": 0.34},
    build=_swim, access_scale=1.5,
))
_register(BenchmarkSpec(
    "FFT", "SPLASH-2", "2^20 complex data points",
    insts_per_access=49.0, dependent_fraction=0.0,
    data_mix={"fp": 0.72, "zero": 0.28},
    build=_fft, access_scale=0.6,
))
_register(BenchmarkSpec(
    "OCEAN", "SPLASH-2", "514 x 514 ocean",
    insts_per_access=4.8, dependent_fraction=0.0,
    data_mix={"fp": 0.64, "zero": 0.36},
    build=_ocean, access_scale=1.5,
))


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look up a benchmark by its Table 3 name (case-insensitive)."""
    try:
        return BENCHMARKS[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {list(BENCHMARK_ORDER)}"
        ) from None


def known_benchmark(name: str) -> bool:
    """Whether ``name`` is a Table 3 benchmark or a parseable mix name.

    The workload-registry analogue of
    :func:`repro.core.policies.known_policy`; malformed mix names count
    as unknown (use :func:`validate_benchmark` for the precise error).
    """
    try:
        validate_benchmark(name)
    except (KeyError, ValueError):
        return False
    return True


def validate_benchmark(name: str) -> None:
    """Raise unless ``name`` builds a trace.

    ``KeyError`` for an unknown plain benchmark (listing the known
    names, mirroring the policy registry check in
    :class:`~repro.campaign.spec.RunSpec`), or
    :class:`~repro.workloads.mixed.MixNameError` for a string that
    claims the ``MIX@`` grammar but does not parse.
    """
    from .mixed import MixSpec, is_mix_name

    if is_mix_name(name):
        MixSpec.parse(name)  # raises MixNameError / KeyError on bad parts
        return
    if name.upper() not in BENCHMARKS:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {list(BENCHMARK_ORDER)} "
            "or a MIX@ARRIVAL:GAP@Z:BIAS@BENCH:WEIGHT+... traffic mix"
        )


# Process-wide LRU of built traces.  A campaign replays each trace
# under several policies back to back, so a few entries serve it; the
# bound keeps a long-lived process (a serve shard or a remote worker,
# which sees a fresh seed per job) from holding every trace it built.
_TRACE_CACHE: OrderedDict[tuple, MemoryTrace] = OrderedDict()
TRACE_CACHE_ENTRIES = 16

DEFAULT_ACCESSES_PER_CORE = 24_000


def _cached_trace(key: tuple) -> MemoryTrace | None:
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        _TRACE_CACHE.move_to_end(key)
    return trace


def _cache_trace(key: tuple, trace: MemoryTrace) -> None:
    _TRACE_CACHE[key] = trace
    _TRACE_CACHE.move_to_end(key)
    while len(_TRACE_CACHE) > TRACE_CACHE_ENTRIES:
        _TRACE_CACHE.popitem(last=False)


def build_trace(
    name: str,
    config: SystemConfig,
    seed: int = 0,
    accesses_per_core: int = DEFAULT_ACCESSES_PER_CORE,
    use_cache: bool = True,
) -> MemoryTrace:
    """Generate (or fetch from cache) the memory trace for a benchmark.

    The trace depends only on the benchmark, the system configuration,
    the seed, and the scale — never on the coding policy — so every
    policy comparison in the experiments replays the *same* trace.
    """
    from ..system.hierarchy import filter_through_hierarchy
    from .mixed import MixSpec, build_mixed_trace, is_mix_name

    if is_mix_name(name):
        # Scenario traffic: DRAM-level synthesis, no hierarchy filter.
        # The trace depends on the mix name, the seed, the scale, and
        # (of the config) only the core count.
        mix = MixSpec.parse(name)
        key = (mix.name, config.cores, seed, int(accesses_per_core))
        trace = _cached_trace(key) if use_cache else None
        if trace is None:
            trace = build_mixed_trace(
                mix, config, seed=seed, accesses_per_core=accesses_per_core
            )
            if use_cache:
                _cache_trace(key, trace)
        return trace

    spec = get_benchmark(name)
    scaled = max(64, int(accesses_per_core * spec.access_scale))
    key = (spec.name, config.name, seed, scaled)
    trace = _cached_trace(key) if use_cache else None
    if trace is None:
        streams = spec.streams(config, seed, scaled)
        trace = filter_through_hierarchy(
            streams, config, spec.data_model(), seed=seed, name=spec.name
        )
        if use_cache:
            _cache_trace(key, trace)
    return trace


def clear_trace_cache() -> None:
    """Drop memoised traces (tests use this to bound memory)."""
    _TRACE_CACHE.clear()
