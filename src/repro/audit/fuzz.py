"""Fixed-seed schedule fuzzer: drive the real controller, audit the log.

The fuzzer generates adversarial request streams — random rank/group/
bank/row mixes, read/write interleavings, bursty arrivals, and
occasional multi-tREFI idle gaps that exercise refresh catch-up — runs
them through a full :class:`~repro.controller.ChannelController`, and
replays the recorded command and bus logs through
:class:`~repro.audit.protocol.ProtocolAuditor`.  A clean audit over the
corpus is the evidence that the channel's constraint enforcement and the
auditor's independent re-derivation agree.

Everything is seeded: ``run_corpus(schedules=..., base_seed=...)``
enumerates a deterministic grid of (timing set × burst-length set ×
rank count × page policy) combinations, so a failure reproduces from its
printed seed alone.  The grid covers DDR4-3200, LPDDR3-1600 and
DDR3-1600 with BL8 / BL10 / BL16 bursts (and a mixed-scheme policy that
changes burst length per transaction, the regime MiL actually operates
in) over one- and two-rank channels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..coding.registry import scheme_info
from ..controller.controller import ChannelController
from ..controller.request import MemoryRequest
from ..dram.address import MappedAddress
from ..dram.commands import DDR4_GEOMETRY, LPDDR3_GEOMETRY, Geometry
from ..dram.timing import DDR3_1600, DDR4_3200, LPDDR3_1600, TimingParams
from .protocol import ProtocolAuditor, Violation

__all__ = ["FuzzResult", "ShuffledScheme", "drive", "fuzz_controller",
           "fuzz_schedule", "run_corpus", "combo_grid"]

# DDR3 has no bank groups; mirror the LPDDR3 organisation at DDR4's
# page size for the cross-generation fuzz arm.
DDR3_FUZZ_GEOMETRY = Geometry(
    ranks=2, bank_groups=1, banks_per_group=8, rows=1 << 15, row_bytes=8192
)

_TIMINGS: dict[str, tuple[TimingParams, Geometry]] = {
    "ddr4-3200": (DDR4_3200, DDR4_GEOMETRY),
    "lpddr3-1600": (LPDDR3_1600, LPDDR3_GEOMETRY),
    "ddr3-1600": (DDR3_1600, DDR3_FUZZ_GEOMETRY),
}

# Burst-length arms: fixed BL8/BL10/BL16, plus the per-transaction mix.
_SCHEME_SETS: dict[str, tuple[str, ...]] = {
    "bl8": ("dbi",),
    "bl10": ("milc",),
    "bl16": ("3lwc",),
    "mix": ("dbi", "milc", "3lwc"),
}


class ShuffledScheme:
    """Coding policy that picks a random burst length per transaction.

    The worst case for tCCD stretch and bus accounting: every column
    command may change the burst length.  ``extra_cl`` is the maximum
    over the allowed schemes so the folded codec latency is always
    sufficient (the same conservative choice MiL's own policy makes).
    """

    probe = None  # telemetry slot, unused here

    def __init__(self, schemes: tuple[str, ...], seed: int):
        self.schemes = tuple(schemes)
        self.extra_cl = max(
            scheme_info(s).extra_latency for s in self.schemes
        )
        self._rng = random.Random(seed)

    def choose(self, controller, request, now: int) -> str:
        return self._rng.choice(self.schemes)


@dataclass(frozen=True)
class FuzzResult:
    """Outcome of one fuzzed schedule."""

    label: str  # "ddr4-3200/mix/r2/open"
    seed: int
    requests: int
    completed: int
    commands: int
    violations: list[Violation]

    @property
    def clean(self) -> bool:
        return not self.violations


def _random_arrivals(
    rng: random.Random, geometry: Geometry, timing: TimingParams, count: int
) -> list[tuple[int, MemoryRequest]]:
    """Adversarial (cycle, request) stream for one schedule."""
    arrivals = []
    now = 0
    # A small row pool makes hits and conflicts both common.
    rows = [rng.randrange(geometry.rows) for _ in range(4)]
    for i in range(count):
        if rng.random() < 0.05:
            # Long idle gap: multiple refresh intervals elapse, driving
            # the debt clamp and the refresh catch-up path.
            now += timing.REFI * rng.randint(1, 12)
        else:
            now += rng.randrange(0, 30)
        mapped = MappedAddress(
            channel=0,
            rank=rng.randrange(geometry.ranks),
            bank_group=rng.randrange(geometry.bank_groups),
            bank=rng.randrange(geometry.banks_per_group),
            row=rng.choice(rows),
            column=rng.randrange(geometry.lines_per_row),
        )
        req = MemoryRequest(
            address=i * 64,
            is_write=rng.random() < 0.4,
            core=i % 4,
            line_id=i,
            mapped=mapped,
        )
        arrivals.append((now, req))
    return arrivals


def drive(
    mc: ChannelController,
    arrivals: list[tuple[int, MemoryRequest]],
    max_cycles: int = 4_000_000,
) -> list[MemoryRequest]:
    """Feed (cycle, request) arrivals; run to empty; return completions."""
    done: list[MemoryRequest] = []
    idx = 0
    now = 0
    while idx < len(arrivals) or mc.has_pending:
        while idx < len(arrivals) and arrivals[idx][0] <= now:
            cycle, req = arrivals[idx]
            if mc.can_accept(req.is_write):
                mc.enqueue(req, now)
                idx += 1
            else:
                break
        mc.step(now)
        done.extend(mc.drain_completions())
        bounds = [t for t in (
            mc.next_event(now),
            arrivals[idx][0] if idx < len(arrivals) else None,
        ) if t is not None]
        if not bounds:
            if idx < len(arrivals):
                now += 1
                continue
            break
        now = max(now + 1, min(bounds))
        if now >= max_cycles:
            raise RuntimeError("fuzz schedule made no progress")
    done.extend(mc.drain_completions())
    return done


def fuzz_controller(
    timing: TimingParams,
    geometry: Geometry,
    schemes: tuple[str, ...],
    requests: int,
    seed: int,
    page_policy: str = "open",
) -> tuple[ChannelController, list[MemoryRequest]]:
    """Drive one fuzzed schedule; return the controller and completions.

    The controller keeps its command log, so callers can audit it or
    inspect it (the injected-violation tests mutate these logs).
    """
    rng = random.Random(seed)
    policy = ShuffledScheme(schemes, seed=rng.randrange(1 << 30))
    mc = ChannelController(
        timing, geometry, policy=policy, page_policy=page_policy,
        keep_cmd_log=True,
    )
    arrivals = _random_arrivals(rng, geometry, timing, requests)
    done = drive(mc, arrivals)
    return mc, done


def fuzz_schedule(
    timing: TimingParams,
    geometry: Geometry,
    schemes: tuple[str, ...],
    requests: int,
    seed: int,
    page_policy: str = "open",
    label: str = "",
) -> FuzzResult:
    """Run one fuzzed schedule through controller and auditor."""
    mc, done = fuzz_controller(
        timing, geometry, schemes, requests, seed, page_policy
    )
    auditor = ProtocolAuditor(mc.timing, geometry)
    violations = auditor.audit(mc.channel.command_log,
                               mc.channel.transactions)
    return FuzzResult(
        label=label or f"{timing.name}/{'+'.join(schemes)}",
        seed=seed,
        requests=requests,
        completed=len(done),
        commands=len(mc.channel.command_log),
        violations=violations,
    )


def combo_grid() -> list[tuple[str, TimingParams, Geometry, tuple[str, ...], str]]:
    """The deterministic (timing × schemes × ranks × policy) grid."""
    grid = []
    for tname, (timing, geometry) in _TIMINGS.items():
        for sname, schemes in _SCHEME_SETS.items():
            for ranks in (1, 2):
                for page in ("open", "closed"):
                    geo = (
                        geometry if ranks == geometry.ranks
                        else replace(geometry, ranks=ranks)
                    )
                    label = f"{tname}/{sname}/r{ranks}/{page}"
                    grid.append((label, timing, geo, schemes, page))
    return grid


def run_corpus(
    schedules: int,
    requests: int = 24,
    base_seed: int = 0,
):
    """Yield ``schedules`` FuzzResults, round-robin over the grid.

    Deterministic in (``schedules``, ``requests``, ``base_seed``): the
    i-th schedule always gets combo ``grid[i % len(grid)]`` and seed
    ``base_seed * 1_000_003 + i``.
    """
    grid = combo_grid()
    for i in range(schedules):
        label, timing, geometry, schemes, page = grid[i % len(grid)]
        yield fuzz_schedule(
            timing, geometry, schemes, requests,
            seed=base_seed * 1_000_003 + i,
            page_policy=page, label=label,
        )
