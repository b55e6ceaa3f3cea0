"""Gate: the batched numpy kernels actually beat the reference oracle.

The per-element pure-Python references in ``tests/codec_oracle.py``
are the correctness oracle while the vectorised numpy kernels carry the
hot path.  That division of labour is only honest if the fast path is
actually fast: for each gated scheme, the registered benchmark
``coding.encode_trace.<scheme>`` (see ``repro.bench.suite``) and the
oracle's ``encode_lines`` time the same batched workload — same corpus,
same Figure 12 layout — and the kernel median must come out at least
3x ahead.

The observed margins are 15-200x; 3x leaves generous head-room for
slow CI machines while still catching a silent fall-back to
per-element Python in a rewritten kernel.

Run from the repository root so the ``tests`` package imports::

    PYTHONPATH=src python -m pytest benchmarks/test_batched_codec_speedup.py
"""

import pytest

from repro.bench import corpus, get, measure
from repro.coding.registry import beat_layout, scheme_info
from tests.codec_oracle import REFERENCE_FACTORIES

MIN_SPEEDUP = 3.0
ATTEMPTS = 3  # whole-comparison retries before failing
GATED_SCHEMES = ("milc", "cafo2", "3lwc")


def _oracle_thunk(scheme, lines):
    """The oracle's ``encode_lines`` on the kernel benchmark's corpus."""
    data = corpus.lines(lines)
    if scheme_info(scheme).layout == "beat":
        data = beat_layout(data)
    codec = REFERENCE_FACTORIES[scheme]()
    return lambda: codec.encode_lines(data)


@pytest.mark.parametrize("scheme", GATED_SCHEMES)
def test_numpy_kernel_beats_reference(scheme):
    fast = get(f"coding.encode_trace.{scheme}")
    lines = fast.params["lines"]
    oracle = _oracle_thunk(scheme, lines)

    best = 0.0
    for _ in range(ATTEMPTS):
        t_fast = measure(fast.build(), repeats=5, warmup=1,
                         inner_ops=fast.inner_ops).median_ns
        t_oracle = measure(oracle, repeats=3, warmup=1,
                           inner_ops=lines).median_ns
        speedup = t_oracle / t_fast
        best = max(best, speedup)
        if speedup >= MIN_SPEEDUP:
            return
    pytest.fail(
        f"{scheme}: numpy encode_trace speedup {best:.2f}x over the "
        f"reference oracle is below the {MIN_SPEEDUP}x gate"
    )


@pytest.mark.parametrize("scheme", GATED_SCHEMES)
def test_gated_backends_agree(scheme):
    # The benchmarks time the same computation; prove it IS the same.
    fast = get(f"coding.encode_trace.{scheme}")
    fast_bits = fast.build()()
    oracle_bits = _oracle_thunk(scheme, fast.params["lines"])()
    assert fast_bits.shape == oracle_bits.shape
    assert (fast_bits == oracle_bits).all()
