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


def _warm_l2(l2, streams, config, rng) -> None:
    """Pre-fill the L2 to steady state before tracing.

    A finite trace would otherwise start with an empty L2 and emit no
    dirty writebacks until the cache fills — tens of thousands of
    accesses for a 4 MB L2.  Real applications run in steady state,
    where every fill evicts and dirty victims stream back to memory.
    Victim dirtiness follows each stream's own write density (the
    probability that a 64-byte line received at least one write).
    """
    capacity = config.l2_bytes // config.line_bytes
    per_stream = capacity // max(1, len(streams)) + 1
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
        l2.fill_lines(
            range(base, base + per_stream * step, step), dirty.tolist()
        )


def filter_through_hierarchy(
    streams: list[CoreAccessStream],
    config: SystemConfig,
    data_model,
    seed: int = 0,
    name: str = "trace",
    warm_caches: bool = True,
) -> MemoryTrace:
    """Run access streams through L1s + shared L2 and build the trace.

    ``data_model`` must provide ``lines_for(addresses) -> (n, 64) uint8``
    mapping line addresses to deterministic payload bytes.  With
    ``warm_caches`` (default) the shared L2 starts at steady-state
    occupancy; see :func:`_warm_l2`.
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
    if warm_caches:
        _warm_l2(l2, streams, config, rng)
        l2.hits = l2.misses = l2.writebacks = 0

    records: list[list[TraceRecord]] = [[] for _ in streams]
    # CPU cycles of work accumulated since each core's last trace record.
    pending_cpu_cycles = [0.0 for _ in streams]
    banked_gap = [0 for _ in streams]  # gap cycles deferred by burstiness
    emitted = [0 for _ in streams]
    positions = [0 for _ in streams]
    cpu_accesses = 0

    def emit(core: int, address: int, is_write: bool, prefetch: bool) -> None:
        gap = config.cpu_to_dram_cycles(pending_cpu_cycles[core])
        pending_cpu_cycles[core] = 0.0
        if prefetch:
            # Prefetches trickle out of the prefetcher at its issue
            # pacing instead of landing in one batch.
            gap = max(gap, config.prefetcher.spacing)
        burst = streams[core].burst_lines
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
            and rng.random() < streams[core].dependent_fraction
        )
        records[core].append(
            TraceRecord(
                core=core,
                gap=gap,
                address=address,
                is_write=is_write,
                line_id=-1,  # assigned after all records exist
                is_prefetch=prefetch,
                dependent=dependent,
            )
        )

    def l2_access(core: int, line: int) -> None:
        """Demand L2 access for a line missing in the core's L1.

        The L1 is write-allocate/writeback, so even a write miss fetches
        the line; the L2 copy stays clean until an L1 writeback arrives.
        """
        result = l2.access(line, False)
        if result.writeback is not None:
            emit(core, result.writeback, True, prefetch=False)
        if not result.hit:
            pending_cpu_cycles[core] += config.l2_hit_cpu_cycles
            emit(core, line, False, prefetch=False)
            for pf_line in prefetcher.observe(line):
                if not l2.contains(pf_line):
                    victim = l2.fill(pf_line)
                    if victim is not None:
                        emit(core, victim, True, prefetch=False)
                    emit(core, pf_line, False, prefetch=True)
        else:
            pending_cpu_cycles[core] += config.l2_hit_cpu_cycles

    live = [i for i in range(len(streams)) if len(streams[i])]
    while live:
        still_live = []
        for core in live:
            stream = streams[core]
            start = positions[core]
            stop = min(start + _INTERLEAVE_CHUNK, len(stream))
            l1 = l1s[core]
            for idx in range(start, stop):
                address = int(stream.addresses[idx])
                is_write = bool(stream.is_write[idx])
                cpu_accesses += 1
                pending_cpu_cycles[core] += (
                    (1.0 + stream.insts_per_access)
                    * config.intensity_scale
                    / config.issue_ipc
                )

                result = l1.access(address, is_write)
                line = result.line
                if result.writeback is not None:
                    # Dirty L1 victim lands in the L2 (writeback cache).
                    directory.evict(core, result.writeback)
                    victim = l2.fill(result.writeback, dirty=True)
                    if victim is not None:
                        emit(core, victim, True, prefetch=False)
                if result.hit:
                    if is_write:
                        outcome = directory.write(core, line)
                        for other in outcome.invalidated:
                            l1s[other].invalidate(line)
                    continue

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
                l2_access(core, line)
            positions[core] = stop
            if stop < len(stream):
                still_live.append(core)
        live = still_live

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

    l1_accesses = sum(c.hits + c.misses for c in l1s)
    l1_misses = sum(c.misses for c in l1s)
    return MemoryTrace(
        name=name,
        records_by_core=records,
        line_data=line_data,
        cpu_accesses=cpu_accesses,
        l1_miss_rate=l1_misses / l1_accesses if l1_accesses else 0.0,
        l2_miss_rate=l2.miss_rate,
        stats={
            "l2_writebacks": l2.writebacks,
            "prefetches": prefetcher.issued,
            "mesi_invalidations": directory.invalidations,
            "mesi_dirty_transfers": directory.dirty_transfers,
        },
    )
