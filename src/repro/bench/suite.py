"""The registered benchmark suite: every hot path the roadmap cares about.

Collected automatically by :func:`repro.bench.registry.collect`.  Each
factory builds its inputs from the fixed-seed corpus (or a fixed
synthetic device state) and returns the thunk to measure — setup never
counts against the numbers.

Groups:

``coding.*``
    The codec kernels (``line_zeros`` per scheme, bus-invert, transition
    signaling) plus the raw popcount primitive and its legacy
    unpack-to-bits formulation, kept as the regression reference for the
    ``bitops`` fast path.  ``coding.encode_trace.<scheme>`` times the
    batched ``encode_lines`` kernel, which
    ``benchmarks/test_batched_codec_speedup.py`` gates at >=3x over the
    test oracle's per-element reference codecs on the same corpus.
``dram.*`` / ``controller.*`` / ``core.*``
    The cycle-level channel tick loop, the fused FR-FCFS scheduling pass,
    and the MiL look-ahead decision.
``audit.*``
    The protocol auditor's log replay — the cost a run pays only when
    ``--audit`` is on.
``campaign.*``
    Cache fingerprinting and key derivation — the costs every campaign
    pays per run.
``sim.*``
    A small end-to-end run, covering the integrated stack.
``scenario.*`` / ``workloads.*``
    Scenario-engine hot paths: compiling the whole checked-in
    ``scenarios/`` corpus into RunSpec matrices (the per-invocation
    cost every ``repro scenario`` command pays — kept sub-second by the
    baseline gate) and synthesising one mixed-arrival trace.
``serve.*``
    The resident campaign service over its Unix-socket wire protocol:
    a fully-cached submit→terminal roundtrip (API + scheduler + store
    cost, no simulation) and an NDJSON event-stream backfill.  Both
    share one background server started lazily on first use; excluded
    from ``--smoke`` so the CI smoke pass never pays server startup.
"""

from __future__ import annotations

import numpy as np

from . import corpus
from .registry import benchmark

_LINES = 2048  # corpus size for the codec kernels
_SMOKE_SCHEMES = ("dbi", "milc", "3lwc")  # cheap, distinct code families
_HEAVY_SCHEMES = ("raw", "lwc12", "cafo2", "cafo4")


# ----------------------------------------------------------------------
# coding.* — codec kernels
# ----------------------------------------------------------------------
def _register_line_zeros(scheme: str, smoke: bool) -> None:
    @benchmark(
        f"coding.line_zeros.{scheme}",
        params={"lines": _LINES, "scheme": scheme},
        smoke=smoke,
        inner_ops=_LINES,
        description=f"{scheme} zero counting over {_LINES} cache lines",
    )
    def _factory(scheme=scheme):
        from ..coding.pipeline import line_zeros

        data = corpus.lines(_LINES)
        return lambda: line_zeros(scheme, data)


for _scheme in _SMOKE_SCHEMES:
    _register_line_zeros(_scheme, smoke=True)
for _scheme in _HEAVY_SCHEMES:
    _register_line_zeros(_scheme, smoke=False)


# Batched encode kernels, one entry per scheme.  The corpus is smaller
# than _LINES because the speedup gate in
# benchmarks/test_batched_codec_speedup.py times the per-element Python
# reference codecs on the same corpus, to compare like with like.
_TRACE_LINES = 256
_CODEC_SCHEMES = ("dbi", "milc", "3lwc", "cafo2", "cafo4", "lwc12")


def _register_encode_trace(scheme: str, smoke: bool) -> None:
    @benchmark(
        f"coding.encode_trace.{scheme}",
        params={"lines": _TRACE_LINES, "scheme": scheme},
        smoke=smoke,
        inner_ops=_TRACE_LINES,
        description=f"batched {scheme} encode_lines kernel over "
                    f"{_TRACE_LINES} cache lines",
    )
    def _factory(scheme=scheme):
        from ..coding.pipeline import encode_trace

        data = corpus.lines(_TRACE_LINES)
        return lambda: encode_trace(scheme, data)


for _scheme in _CODEC_SCHEMES:
    _register_encode_trace(_scheme, smoke=_scheme in _SMOKE_SCHEMES)


@benchmark(
    "coding.zero_table_cache",
    params={"lines": _LINES, "schemes": len(_SMOKE_SCHEMES), "repeats": 4},
    smoke=True,
    inner_ops=4 * len(_SMOKE_SCHEMES),
    description="precompute_line_zeros x4 on one trace via the "
                "campaign-wide zero-table cache (3 encodes + 9 hits)",
)
def _zero_table_cache():
    from ..coding.pipeline import precompute_line_zeros
    from ..coding.zerocache import ZeroTableCache, lines_digest

    data = corpus.lines(_LINES)
    digest = lines_digest(data)

    def cached_campaign():
        # A fresh private cache per call: the first precompute pays the
        # encodes, the next three (the other policies of a campaign
        # replaying the same trace) are pure hits.
        cache = ZeroTableCache()
        for _ in range(4):
            tables = precompute_line_zeros(
                data, _SMOKE_SCHEMES, digest=digest, cache=cache
            )
        return tables

    return cached_campaign


@benchmark(
    "coding.zero_table_uncached",
    params={"lines": _LINES, "schemes": len(_SMOKE_SCHEMES), "repeats": 4},
    inner_ops=4 * len(_SMOKE_SCHEMES),
    description="the same 4-policy campaign with the cache bypassed "
                "(the pre-cache cost; regression reference)",
)
def _zero_table_uncached():
    from ..coding.pipeline import precompute_line_zeros

    data = corpus.lines(_LINES)

    def uncached_campaign():
        for _ in range(4):
            tables = precompute_line_zeros(data, _SMOKE_SCHEMES, cache=False)
        return tables

    return uncached_campaign


@benchmark(
    "coding.bitops.popcount",
    params={"lines": _LINES},
    smoke=True,
    inner_ops=_LINES,
    description="byte-level popcount path (np.bitwise_count / byte table)",
)
def _popcount_bytes():
    from ..coding.bitops import zeros_in_bytes

    data = corpus.lines(_LINES)
    return lambda: zeros_in_bytes(data)


@benchmark(
    "coding.bitops.popcount_unpack",
    params={"lines": _LINES},
    smoke=True,
    inner_ops=_LINES,
    description="legacy unpack-to-bits popcount (regression reference)",
)
def _popcount_unpack():
    data = corpus.lines(_LINES)

    def unpack_zeros() -> np.ndarray:
        # The pre-bench formulation of raw_line_zeros: expand every
        # byte to eight uint8 bit elements, then sum.  Kept verbatim so
        # the speedup of the byte-level path stays measurable.
        bits = np.unpackbits(data, axis=-1)
        return bits.shape[-1] - bits.sum(axis=-1, dtype=np.int64)

    return unpack_zeros


@benchmark(
    "coding.businvert.sequence",
    params={"beats": 512},
    inner_ops=512,
    description="stateful bus-invert encoding of a 512-beat lane stream",
)
def _businvert():
    from ..coding.businvert import BusInvertCode

    beats = corpus.lines(_LINES)[:8].reshape(-1)[:512].copy()
    code = BusInvertCode()
    return lambda: code.encode_sequence(beats)


@benchmark(
    "coding.transition.encode",
    params={"beats": 2048, "lanes": 64},
    inner_ops=2048,
    description="transition-signaling XOR cascade over 2048 64-lane beats",
)
def _transition():
    from ..coding.bitops import bytes_to_bits
    from ..coding.transition import TransitionSignaling

    bits = bytes_to_bits(corpus.lines(_LINES)[:256]).reshape(-1, 64)
    ts = TransitionSignaling(lanes=64)

    def encode():
        ts.reset()
        return ts.encode(bits)

    return encode


# ----------------------------------------------------------------------
# dram.* / controller.* / core.* — the cycle-level engine
# ----------------------------------------------------------------------
@benchmark(
    "dram.channel.tick",
    params={"activations": 64, "reads_per_row": 4},
    inner_ops=64 * 6,  # commands issued per thunk call
    description="DRAM channel ACT/READx4/PRE loop across banks",
)
def _channel_tick():
    from ..dram.channel import DRAMChannel
    from ..dram.commands import DDR4_GEOMETRY, CommandType
    from ..dram.timing import DDR4_3200

    geometry = DDR4_GEOMETRY

    def tick():
        channel = DRAMChannel(DDR4_3200, geometry, keep_log=False)
        now = 0
        for i in range(64):
            rank = i % geometry.ranks
            group = (i // geometry.ranks) % geometry.bank_groups
            bank = i % geometry.banks_per_group
            t = channel.earliest_issue(
                CommandType.ACTIVATE, rank, group, bank, now
            )
            channel.issue(CommandType.ACTIVATE, rank, group, bank, t, row=i)
            for _ in range(4):
                t = channel.earliest_issue(
                    CommandType.READ, rank, group, bank, t
                )
                channel.issue(
                    CommandType.READ, rank, group, bank, t, bus_cycles=4
                )
            t = channel.earliest_issue(
                CommandType.PRECHARGE, rank, group, bank, t
            )
            now = channel.issue(
                CommandType.PRECHARGE, rank, group, bank, t
            ) - DDR4_3200.RP
        return channel.read_count

    return tick


def _queued_controller():
    """A ChannelController with a populated read queue and open rows.

    Shared fixture for the scheduling and decision-logic benchmarks: 32
    mapped reads spread over ranks/groups/banks, half of them row hits.
    """
    from ..controller.controller import ChannelController
    from ..controller.request import MemoryRequest
    from ..dram.address import MappedAddress
    from ..dram.commands import DDR4_GEOMETRY, CommandType
    from ..dram.timing import DDR4_3200

    geometry = DDR4_GEOMETRY
    controller = ChannelController(
        DDR4_3200, geometry, keep_log=False, refresh_enabled=False
    )
    requests = []
    for i in range(32):
        mapped = MappedAddress(
            channel=0,
            rank=i % geometry.ranks,
            bank_group=(i // 2) % geometry.bank_groups,
            bank=(i // 4) % geometry.banks_per_group,
            row=100 + (i // 16),  # two row cohorts -> hits and conflicts
            column=i % geometry.lines_per_row,
        )
        req = MemoryRequest(
            address=i * 64, is_write=False, core=i % 8, line_id=i,
            mapped=mapped,
        )
        requests.append(req)
        controller.enqueue(req, now=i)
    # Open the row-100 cohort so the queue holds genuine row hits.
    opened = set()
    for req in requests:
        m = req.mapped
        key = (m.rank, m.bank_group, m.bank)
        if m.row == 100 and key not in opened:
            t = controller.channel.earliest_issue(
                CommandType.ACTIVATE, m.rank, m.bank_group, m.bank, 0
            )
            controller.channel.issue(
                CommandType.ACTIVATE, m.rank, m.bank_group, m.bank, t,
                row=m.row,
            )
            opened.add(key)
    return controller, requests


@benchmark(
    "controller.next_event",
    params={"queue_depth": 32},
    smoke=True,
    description="fused (pick, wake) recompute over a 32-deep queue "
                "(the event heap's per-reschedule cost)",
)
def _next_event():
    controller, requests = _queued_controller()
    # Advance ``now`` every call: the fused pass is memoised per
    # (state version, cycle), so a fresh cycle measures the full
    # recompute, which is what each controller reschedule pays.
    clock = [200]

    def query():
        now = clock[0]
        clock[0] = now + 1
        return controller.next_event(now)

    return query


@benchmark(
    "core.decision.lookahead",
    params={"queue_depth": 32, "lookahead": 14},
    smoke=True,
    description="MiL rdyX look-ahead decision against a 32-deep queue",
)
def _decision():
    from ..core.config import MiLConfig
    from ..core.decision import MiLPolicy

    controller, requests = _queued_controller()
    policy = MiLPolicy(MiLConfig(lookahead=14))
    victim = requests[0]
    now = 200

    return lambda: policy.choose(controller, victim, now)


@benchmark(
    "audit.protocol.check",
    params={"schedules": 4, "requests": 24},
    description="ProtocolAuditor replay of 4 fuzzed controller command "
                "logs (audit-layer cost, paid only under --audit)",
)
def _protocol_audit():
    from ..audit.fuzz import combo_grid, fuzz_controller
    from ..audit.protocol import ProtocolAuditor

    # Fixed seeds over the first grid combos; the schedules run during
    # setup so the thunk measures only the audit replay.
    logs = []
    for i, (label, timing, geometry, schemes, page) in enumerate(
        combo_grid()[:4]
    ):
        mc, _done = fuzz_controller(
            timing, geometry, schemes, requests=24, seed=1000 + i,
            page_policy=page,
        )
        logs.append((
            ProtocolAuditor(mc.timing, geometry),
            list(mc.channel.command_log),
            list(mc.channel.transactions),
        ))

    def check():
        total = 0
        for auditor, commands, transactions in logs:
            total += len(auditor.audit(commands, transactions))
        return total

    return check


# ----------------------------------------------------------------------
# campaign.* — orchestration hot paths
# ----------------------------------------------------------------------
@benchmark(
    "campaign.fingerprint",
    smoke=True,
    description="cold model-source fingerprint (hash every model file)",
)
def _fingerprint():
    from ..campaign.fingerprint import model_fingerprint

    def fingerprint():
        model_fingerprint.cache_clear()
        return model_fingerprint()

    return fingerprint


@benchmark(
    "campaign.cache_key",
    smoke=True,
    description="content-addressed cache key from a RunSpec",
)
def _cache_key():
    from ..campaign.cache import cache_key
    from ..campaign.spec import RunSpec

    spec = RunSpec(benchmark="GUPS", policy="mil", accesses_per_core=4000)
    fingerprint = "0" * 16  # pinned: measures keying, not file hashing
    return lambda: cache_key(spec, fingerprint)


# ----------------------------------------------------------------------
# scenario.* / workloads.* — scenario-engine hot paths
# ----------------------------------------------------------------------
@benchmark(
    "scenario.compile",
    smoke=True,
    description="load + validate + compile the whole checked-in "
                "scenarios/ corpus into RunSpec matrices",
)
def _scenario_compile():
    from ..scenario import compile_scenario, discover, load_scenario

    paths = discover()

    def compile_corpus():
        total = 0
        for path in paths:
            total += len(compile_scenario(load_scenario(path)))
        return total

    return compile_corpus


@benchmark(
    "workloads.mixed_trace",
    params={"accesses_per_core": 500, "components": 2},
    smoke=True,
    description="synthesise one mixed-arrival GUPS/CG trace "
                "(per-core draws, payloads, poisson gaps)",
)
def _mixed_trace():
    from ..system.machine import SYSTEMS
    from ..workloads.mixed import MixSpec, build_mixed_trace

    config = SYSTEMS["ddr4-server"]
    mix = MixSpec.make({"GUPS": 0.6, "CG": 0.4}, zero_bias=0.25)
    return lambda: build_mixed_trace(
        mix, config, seed=0, accesses_per_core=500
    )


# ----------------------------------------------------------------------
# sim.* — end-to-end
# ----------------------------------------------------------------------
@benchmark(
    "sim.run_spec.gups",
    params={"benchmark": "GUPS", "policy": "mil", "accesses_per_core": 120},
    smoke=True,
    description="small end-to-end GUPS run (trace, simulate, energy)",
)
def _end_to_end():
    from ..campaign.spec import RunSpec
    from ..core.framework import run_spec

    spec = RunSpec(benchmark="GUPS", policy="mil", accesses_per_core=120)
    return lambda: run_spec(spec)


@benchmark(
    "sim.multi_channel.gups",
    params={"benchmark": "GUPS", "policy": "mil", "channels": 4,
            "accesses_per_core": 120},
    smoke=True,
    description="end-to-end GUPS run on a 4-channel variant (exercises "
                "the cross-channel event heap)",
)
def _end_to_end_multi_channel():
    from ..campaign.spec import RunSpec
    from ..core.framework import run_spec

    spec = RunSpec(
        benchmark="GUPS", policy="mil", accesses_per_core=120,
        system_overrides=(("channels", 4),),
    )
    return lambda: run_spec(spec)


# ----------------------------------------------------------------------
# serve.* — the campaign service over its wire protocol
# ----------------------------------------------------------------------
_SERVE_STATE: dict = {}


def _serve_state() -> dict:
    """One shared background service for the ``serve.*`` benchmarks.

    Started lazily (so merely collecting the suite stays free) with
    ``shards=0`` and the spec set executed once up front: every measured
    submission is a 100% cache hit, so the numbers isolate the wire
    protocol, job manager, and result store from simulation cost.  The
    handle's daemon thread dies with the bench process.
    """
    if not _SERVE_STATE:
        import tempfile
        from pathlib import Path

        from ..campaign.spec import RunSpec
        from ..serve.client import ServeClient
        from ..serve.server import start_in_thread
        from ..serve.service import ServiceConfig

        tmp = Path(tempfile.mkdtemp(prefix="repro-serve-bench-"))
        handle = start_in_thread(
            ServiceConfig(store_root=tmp / "store", shards=0,
                          fingerprint="bench-fp"),
            socket_path=str(tmp / "serve.sock"),
        )
        client = ServeClient(handle.address)
        specs = [
            RunSpec(benchmark="GUPS", system="ddr4-server", policy="dbi",
                    accesses_per_core=80, seed=seed)
            for seed in range(4)
        ]
        warm = client.submit_specs(specs, namespace="bench", label="warm")
        done = client.wait(warm["id"])
        if done["state"] != "done":  # pragma: no cover — setup guard
            raise RuntimeError(f"serve bench warmup failed: {done}")
        _SERVE_STATE.update(
            handle=handle, client=client, specs=specs, warm_job=warm["id"]
        )
    return _SERVE_STATE


@benchmark(
    "serve.submit_roundtrip",
    params={"specs": 4, "transport": "unix-socket", "cache": "warm"},
    description="submit a fully-cached 4-spec job over the Unix-socket "
                "API and wait for its terminal descriptor",
)
def _serve_submit_roundtrip():
    state = _serve_state()
    client, specs = state["client"], state["specs"]

    def roundtrip():
        job = client.submit_specs(specs, namespace="bench")
        return client.wait(job["id"])["state"]

    return roundtrip


@benchmark(
    "serve.event_stream",
    params={"transport": "unix-socket"},
    description="backfill one completed job's RunEvent log over the "
                "NDJSON stream endpoint",
)
def _serve_event_stream():
    state = _serve_state()
    client, job_id = state["client"], state["warm_job"]
    return lambda: len(list(client.events(job_id)))
