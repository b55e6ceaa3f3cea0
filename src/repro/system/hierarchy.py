"""Cache hierarchy filter: CPU access streams -> DRAM memory trace.

This stage plays the role SESC's cache model played for the paper: it
runs every core's access stream through private L1 data caches and a
shared L2 (with a MESI directory and a stream prefetcher at the L2),
emitting the residue — L2 demand misses, dirty L2 writebacks, and
prefetch fills — as :class:`~repro.workloads.trace.TraceRecord` entries
annotated with CPU think-time gaps.

Cores are interleaved in small round-robin chunks so the shared L2 and
the directory see a realistic mix of the eight streams, like a parallel
execution would produce.
"""

from __future__ import annotations

import numpy as np

from ..workloads.trace import MemoryTrace, TraceRecord
from .cache import Cache
from .machine import SystemConfig
from .mesi import MESIDirectory
from .prefetcher import StreamPrefetcher

__all__ = ["CoreAccessStream", "filter_through_hierarchy"]

_INTERLEAVE_CHUNK = 64  # accesses per core per round-robin turn


class CoreAccessStream:
    """One core's CPU-level access stream plus its workload knobs.

    Parameters
    ----------
    addresses, is_write:
        Parallel arrays describing the accesses in program order.
    insts_per_access:
        Non-memory instructions amortised over each access — the
        workload's arithmetic intensity, which sets memory intensity.
    dependent_fraction:
        Probability that a demand miss is serialised behind the previous
        one (pointer-chasing style), making the core latency-sensitive.
    """

    def __init__(
        self,
        addresses: np.ndarray,
        is_write: np.ndarray,
        insts_per_access: float,
        dependent_fraction: float = 0.0,
        burst_lines: int = 1,
    ):
        self.addresses = np.asarray(addresses, dtype=np.int64)
        self.is_write = np.asarray(is_write, dtype=bool)
        if self.addresses.shape != self.is_write.shape:
            raise ValueError("addresses and is_write must align")
        if insts_per_access < 0:
            raise ValueError("insts_per_access must be non-negative")
        if not 0.0 <= dependent_fraction <= 1.0:
            raise ValueError("dependent_fraction must be in [0, 1]")
        if burst_lines < 1:
            raise ValueError("burst_lines must be >= 1")
        self.insts_per_access = insts_per_access
        self.dependent_fraction = dependent_fraction
        # Programs fetch data in spurts: ``burst_lines`` consecutive
        # memory records issue back-to-back, then the accumulated think
        # time follows as one compute phase.  The mean gap is unchanged;
        # only its shape becomes bursty, which is what opens the empty
        # look-ahead windows MiL's long code needs (Figure 22).
        self.burst_lines = burst_lines

    def __len__(self) -> int:
        return len(self.addresses)


# Warm-up lines live at addresses the trace never touches (high bit set)
# so they are pure eviction fodder, never artificial hits.
_WARMUP_BIT = 1 << 45
_DRAW_BLOCK = 256  # ``dependent`` draws taken from the generator at once


def _warm_l2(l2, streams, config, rng) -> None:
    """Pre-fill the L2 to steady state before tracing.

    A finite trace would otherwise start with an empty L2 and emit no
    dirty writebacks until the cache fills — tens of thousands of
    accesses for a 4 MB L2.  Real applications run in steady state,
    where every fill evicts and dirty victims stream back to memory.
    Victim dirtiness follows each stream's own write density (the
    probability that a 64-byte line received at least one write).
    Each stream fills ``per_stream`` consecutive lines after the
    previous stream's, which :meth:`Cache.warm` installs in closed form.
    """
    capacity = config.l2_bytes // config.line_bytes
    per_stream = capacity // max(1, len(streams)) + 1
    warm_lines, warm_dirty = [], []
    for idx, stream in enumerate(streams):
        if len(stream):
            lines = stream.addresses // config.line_bytes
            touched = np.unique(lines)
            dirtied = np.unique(lines[stream.is_write])
            line_dirty_prob = len(dirtied) / max(1, len(touched))
        else:
            line_dirty_prob = 0.0
        base = _WARMUP_BIT | (idx << 36)
        dirty = rng.random(per_stream) < line_dirty_prob
        step = config.line_bytes
        warm_dirty.append(dirty)
        warm_lines.append(base + step * np.arange(per_stream, dtype=np.int64))
    if warm_lines:
        l2.warm(np.concatenate(warm_lines), np.concatenate(warm_dirty))


def _draws(rng):
    """``rng.random()`` values in order, drawn in blocks (same doubles)."""
    while True:
        yield from rng.random(_DRAW_BLOCK).tolist()


def filter_through_hierarchy(
    streams: list[CoreAccessStream],
    config: SystemConfig,
    data_model,
    seed: int = 0,
    name: str = "trace",
) -> MemoryTrace:
    """Run access streams through L1s + shared L2 and build the trace.

    ``data_model`` must provide ``lines_for(addresses) -> (n, 64) uint8``
    mapping line addresses to deterministic payload bytes.  The shared
    L2 starts at steady-state occupancy; see :func:`_warm_l2`.

    The per-access loop inlines the L1 and L2 lookups of
    :meth:`Cache.access` on the caches' set tables.
    """
    if len(streams) > config.cores:
        raise ValueError(f"{len(streams)} streams > {config.cores} cores")

    rng = np.random.default_rng(seed)
    l1s = [
        Cache(config.l1_bytes, config.l1_ways, config.line_bytes, f"L1-{i}")
        for i in range(len(streams))
    ]
    l2 = Cache(config.l2_bytes, config.l2_ways, config.line_bytes, "L2")
    directory = MESIDirectory(config.cores)
    prefetcher = StreamPrefetcher(config.prefetcher, config.line_bytes)
    _warm_l2(l2, streams, config, rng)
    draws = _draws(rng)

    records: list[list[TraceRecord]] = [[] for _ in streams]
    # CPU cycles of work accumulated since each core's last trace record.
    pending_cpu_cycles = [0.0 for _ in streams]
    banked_gap = [0 for _ in streams]  # gap cycles deferred by burstiness
    emitted = [0 for _ in streams]
    cpu_per_dram = config.cpu_per_dram_clock
    spacing = config.prefetcher.spacing

    def emit(core: int, address: int, is_write: bool, prefetch: bool) -> None:
        # SystemConfig.cpu_to_dram_cycles, inlined.
        gap = max(0, int(-(-pending_cpu_cycles[core] // cpu_per_dram)))
        pending_cpu_cycles[core] = 0.0
        if prefetch:
            # Prefetches trickle out of the prefetcher at its issue
            # pacing instead of landing in one batch.
            gap = max(gap, spacing)
        stream = streams[core]
        burst = stream.burst_lines
        if burst > 1 and not prefetch:
            banked_gap[core] += gap
            emitted[core] += 1
            if emitted[core] % burst == 0:
                gap = banked_gap[core]
                banked_gap[core] = 0
            else:
                gap = 0
        dependent = (
            not is_write
            and not prefetch
            and next(draws) < stream.dependent_fraction
        )
        # line_id is assigned after all records exist.
        records[core].append(
            TraceRecord(core, gap, address, is_write, -1, prefetch, dependent)
        )

    line_bytes = config.line_bytes
    l1_ways = config.l1_ways
    l2_sets, l2_mask, l2_ways = l2._sets, l2._set_mask, l2.ways
    l2_hit_cycles = config.l2_hit_cpu_cycles
    l1_misses = l2_hits = l2_misses = 0
    stream_addresses = [s.addresses.tolist() for s in streams]
    stream_writes = [s.is_write.tolist() for s in streams]
    # CPU cycles of work per access.
    think = [
        (1.0 + s.insts_per_access) * config.intensity_scale / config.issue_ipc
        for s in streams
    ]

    live = [i for i in range(len(streams)) if len(streams[i])]
    start = 0
    while live:
        stop = start + _INTERLEAVE_CHUNK
        for core in live:
            l1_sets = l1s[core]._sets
            l1_mask = l1s[core]._set_mask
            work = think[core]
            for address, is_write in zip(
                stream_addresses[core][start:stop],
                stream_writes[core][start:stop],
            ):
                pending_cpu_cycles[core] += work
                line = address - address % line_bytes
                ways = l1_sets[(line // line_bytes) & l1_mask]
                if line in ways:
                    ways[line] = ways.pop(line) or is_write  # MRU
                    if is_write:
                        for other in directory.write(core, line).invalidated:
                            l1s[other].invalidate(line)
                    continue

                l1_misses += 1
                if len(ways) >= l1_ways:
                    victim = next(iter(ways))
                    if ways.pop(victim):
                        # Dirty L1 victim lands in the L2 (writeback cache).
                        directory.evict(core, victim)
                        l2_victim = l2.fill(victim, dirty=True)
                        if l2_victim is not None:
                            emit(core, l2_victim, True, prefetch=False)
                ways[line] = is_write

                # L1 miss: coherence first, then the shared L2.
                outcome = (
                    directory.write(core, line)
                    if is_write
                    else directory.read(core, line)
                )
                for other in outcome.invalidated:
                    l1s[other].invalidate(line)
                if outcome.dirty_writeback:
                    victim = l2.fill(line, dirty=True)
                    if victim is not None:
                        emit(core, victim, True, prefetch=False)
                    continue  # cache-to-cache transfer, no DRAM access

                # Demand L2 access.  The L1 is write-allocate/writeback,
                # so even a write miss fetches the line; the L2 copy
                # stays clean until an L1 writeback arrives.
                ways = l2_sets[(line // line_bytes) & l2_mask]
                if line in ways:
                    l2_hits += 1
                    ways[line] = ways.pop(line)  # MRU
                    pending_cpu_cycles[core] += l2_hit_cycles
                    continue
                l2_misses += 1
                if len(ways) >= l2_ways:
                    victim = next(iter(ways))
                    if ways.pop(victim):
                        l2.writebacks += 1
                        emit(core, victim, True, prefetch=False)
                ways[line] = False
                pending_cpu_cycles[core] += l2_hit_cycles
                emit(core, line, False, prefetch=False)
                for pf_line in prefetcher.observe(line):
                    if not l2.contains(pf_line):
                        victim = l2.fill(pf_line)
                        if victim is not None:
                            emit(core, victim, True, prefetch=False)
                        emit(core, pf_line, False, prefetch=True)
        start = stop
        live = [core for core in live if len(stream_addresses[core]) > stop]

    # Assign line ids and build the payload table.
    addresses = []
    next_id = 0
    for recs in records:
        for rec in recs:
            rec.line_id = next_id
            addresses.append(rec.address)
            next_id += 1
    line_data = (
        data_model.lines_for(np.asarray(addresses, dtype=np.int64))
        if addresses
        else np.zeros((0, 64), dtype=np.uint8)
    )

    cpu_accesses = sum(len(s) for s in streams)
    l2_accesses = l2_hits + l2_misses
    return MemoryTrace(
        name=name,
        records_by_core=records,
        line_data=line_data,
        cpu_accesses=cpu_accesses,
        l1_miss_rate=l1_misses / cpu_accesses if cpu_accesses else 0.0,
        l2_miss_rate=l2_misses / l2_accesses if l2_accesses else 0.0,
        stats={
            "l2_writebacks": l2.writebacks,
            "prefetches": prefetcher.issued,
            "mesi_invalidations": directory.invalidations,
            "mesi_dirty_transfers": directory.dirty_transfers,
        },
    )
