"""Golden pins on the trace layer: benchmark streams -> cache filter.

Every run starts by filtering each core's CPU stream through the L1s,
the warmed shared L2, MESI and the stream prefetcher
(:func:`repro.system.filter_through_hierarchy`).  Any change there that
moves one record, gap, payload byte or counter changes every result
downstream, so each benchmark's trace is pinned on both systems: a
SHA-256 over every ``TraceRecord`` field, ``line_data``,
``cpu_accesses``, both miss rates and ``stats``.
"""

import hashlib
import json

import pytest

from repro.system import SYSTEMS
from repro.workloads.benchmarks import BENCHMARK_ORDER, build_trace

ACCESSES_PER_CORE = 150
SEED = 0

# Captured before the closed-form L2 warm-up and the inlined filter
# loop; both must reproduce them exactly.
TRACE_DIGESTS = {
    "MM/ddr4-server": (
        "458c877e749c9d8ae469c3b5d856b0596e482b63ed9dd86ec526f36ff414e117"
    ),
    "MM/lpddr3-mobile": (
        "2307aac33a07d2003d6c6e4fe2ab567c97461b4d1db3bf823a7a1b2d15693d05"
    ),
    "STRMATCH/ddr4-server": (
        "b74c8c61d62faa7df1024674287003a64455a06ec03942319c5c07049666d534"
    ),
    "STRMATCH/lpddr3-mobile": (
        "8c92ab3ac5d9fe621232ac41d5fbbf7f05a121ff0bb8da4647f8f89f048e9cc0"
    ),
    "HISTOGRAM/ddr4-server": (
        "0a7af115c1c411dc877ddb8640c9c5a5beb0bd1220b0b11cc30591bc9da5cdce"
    ),
    "HISTOGRAM/lpddr3-mobile": (
        "f885b17a3e4ba20e7868a611fbca0fd7e7e259322ebb903cc2ca0bbb1ae5bf32"
    ),
    "ART/ddr4-server": (
        "5177f1a07772d2c31f11700c0b72dd83774dc7b3a1de6a90e6ab02f35db7235e"
    ),
    "ART/lpddr3-mobile": (
        "8f66cfeccaaa25bd01362763db1a3c702bfdb3972dbbdf3aa07cae16e05bbed6"
    ),
    "MG/ddr4-server": (
        "508a8c3b8735dd369d177498000916e61a27b1b4941921f610b4c5f9d8b9a2f8"
    ),
    "MG/lpddr3-mobile": (
        "7099d0d193184effaafdb3c3646cf1649e3562c2a68f8a13dc7e74c5a269dee5"
    ),
    "FFT/ddr4-server": (
        "de07bb1484bf959bccc956b60657abceae9ac67767979e3a948155e289ab70eb"
    ),
    "FFT/lpddr3-mobile": (
        "0e6a6ed91c0dba5a7ae295e791a88db699b6a9d7d45aa0f29c15e21c3fa31243"
    ),
    "SCALPARC/ddr4-server": (
        "5d298dd871550b146686fb435eaa19010468524132fb2f6e0e3e2fdceda931be"
    ),
    "SCALPARC/lpddr3-mobile": (
        "c138c7efc511e2d5a3f2cbdc1e4c43a8329a7fcd707d565ec3cef7d8c25824cc"
    ),
    "SWIM/ddr4-server": (
        "1af2cccbd2f27af65987b69897c58e02ce834c44c87fa24602402629686bd56b"
    ),
    "SWIM/lpddr3-mobile": (
        "81ad1a12fb254c67c697841a20abd43a2ae0c649405c0e6d17d0e7eec918ff3c"
    ),
    "OCEAN/ddr4-server": (
        "326cbd0b68aabc1fa0632d59929404fd873c175a9ea9b6973b0d2ff38b89a671"
    ),
    "OCEAN/lpddr3-mobile": (
        "fd014265a57469e1492cd7bd0e5593e7c57a3e94265cecf04fb53ab5bbd02e52"
    ),
    "CG/ddr4-server": (
        "bce0f6c71977bcd3939b5e2bd89f7283e3dadc9cce61394bb5fcb7d6653de08f"
    ),
    "CG/lpddr3-mobile": (
        "84f6a532e8d5503dbb2bd498cc5a50d43b8b51ce4d48fbc9468278d06f5d3ec5"
    ),
    "GUPS/ddr4-server": (
        "c0b2f69b67493359ad29daa6e149f882622de429a9cb31e2ac001d946a058e02"
    ),
    "GUPS/lpddr3-mobile": (
        "036d81f0ac920b1f731731c83cc451199833f0d7ef5122728fe7f8bd218c4089"
    ),
}


def trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for records in trace.records_by_core:
        for r in records:
            digest.update(json.dumps([
                r.core, r.gap, r.address, r.is_write, r.line_id,
                r.is_prefetch, r.dependent,
            ]).encode())
    digest.update(trace.line_data.tobytes())
    digest.update(json.dumps([
        trace.cpu_accesses, trace.l1_miss_rate, trace.l2_miss_rate,
        trace.stats,
    ], sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_trace_is_pinned(name, system):
    trace = build_trace(
        name, SYSTEMS[system], seed=SEED,
        accesses_per_core=ACCESSES_PER_CORE, use_cache=False,
    )
    assert trace_digest(trace) == TRACE_DIGESTS[f"{name}/{system}"]
