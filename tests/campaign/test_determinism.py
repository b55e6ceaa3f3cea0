"""Determinism regression tests: same spec, same bytes, same key.

The campaign cache's whole premise is that a RunSpec plus the model
source *is* the result.  That only holds if simulation is bit-for-bit
deterministic — any hidden global (an unseeded RNG, dict-order
dependence, wall-clock leakage into the payload) silently poisons every
cached campaign.  These tests re-run identical work and require
byte-identical output, and pin the benchmark corpus digest so pinned
performance baselines notice input drift too.
"""

import hashlib
import json

from repro.bench.corpus import corpus_digest
from repro.campaign.cache import cache_key
from repro.campaign.spec import RunSpec
from repro.core.framework import run_spec

SPEC = RunSpec(benchmark="GUPS", policy="mil", accesses_per_core=200)

# SHA-256 of the default benchmark corpus.  If corpus generation ever
# changes, every recorded benchmark number measures different inputs:
# refresh benchmarks/baseline.json in the same PR (docs/BENCHMARKS.md).
CORPUS_DIGEST = (
    "6ff72708257f8f71426ac8f5ba95a7ee47c07250728a9b5473fdbafd72225188"
)


def _canonical_summary(spec: RunSpec) -> str:
    summary = run_spec(spec).to_dict()
    # `stats` carries orchestration metadata (wall time); everything
    # else is simulation output and must be reproducible.
    summary.pop("stats")
    return json.dumps(summary, sort_keys=True)


def test_identical_specs_produce_byte_identical_summaries():
    assert _canonical_summary(SPEC) == _canonical_summary(SPEC)


def test_summary_is_stable_across_policies():
    for policy in ("dbi", "milc", "mil"):
        spec = RunSpec(benchmark="MM", policy=policy,
                       accesses_per_core=150)
        assert _canonical_summary(spec) == _canonical_summary(spec)


def test_cache_key_is_stable():
    fingerprint = "f" * 16
    first = cache_key(SPEC, fingerprint)
    again = cache_key(SPEC, fingerprint)
    assert first == again
    # Reconstructing an equal spec must key identically: the key hangs
    # off canonical content, not object identity.
    clone = RunSpec(benchmark="GUPS", policy="mil", accesses_per_core=200)
    assert cache_key(clone, fingerprint) == first


def test_cache_key_changes_with_spec_and_fingerprint():
    fingerprint = "f" * 16
    base = cache_key(SPEC, fingerprint)
    other_spec = RunSpec(benchmark="GUPS", policy="mil",
                         accesses_per_core=201)
    assert cache_key(other_spec, fingerprint) != base
    assert cache_key(SPEC, "0" * 16) != base


def test_benchmark_corpus_is_pinned():
    assert corpus_digest(2048) == CORPUS_DIGEST


class TestRegistryRefactorIdentity:
    """Golden pins proving the registry refactor changed no bytes.

    These values were captured on the pre-registry tree (BURST_FORMATS
    dict, POLICIES tuple, make_policy_factory if-chain).  The registry,
    the derived views, and the zero-table cache must reproduce them
    exactly: same cache keys (same canonical spec encoding) and same
    summary bytes (same simulation and energy arithmetic).  The model
    fingerprint is pinned because it hashes source files and changes
    with any edit — the *keying scheme*, not the fingerprint, is under
    test.
    """

    FINGERPRINT = "f" * 16

    GOLDEN_KEYS = {
        RunSpec(benchmark="GUPS", policy="mil", accesses_per_core=200):
            "GUPS-ddr4-server-mil-xauto-n200-s0-c0b4ea98fe7c",
        RunSpec(benchmark="MM", policy="dbi", accesses_per_core=150):
            "MM-ddr4-server-dbi-xauto-n150-s0-db0eb8ad6265",
        RunSpec(benchmark="OCEAN", system="lpddr3-mobile",
                policy="mil-adaptive", accesses_per_core=150, seed=2):
            "OCEAN-lpddr3-mobile-mil-adaptive-xauto-n150-s2-58a8de5a5b53",
        RunSpec(benchmark="CG", policy="bl14", accesses_per_core=150):
            "CG-ddr4-server-bl14-xauto-n150-s0-ff7fa24bf460",
        RunSpec(benchmark="FFT", policy="mil-lwc12", lookahead=9,
                accesses_per_core=150):
            "FFT-ddr4-server-mil-lwc12-x9-n150-s0-36a1996a30d3",
        RunSpec(benchmark="GUPS", policy="cafo2", accesses_per_core=150):
            "GUPS-ddr4-server-cafo2-xauto-n150-s0-c83348fc2d67",
    }

    GOLDEN_SUMMARIES = {
        RunSpec(benchmark="GUPS", policy="mil", accesses_per_core=200):
            "b5d7ca8c7ac14b0db7115e507a8985fa"
            "a567193b01215d9b8f1ddc35c39b4c4f",
        RunSpec(benchmark="MM", policy="dbi", accesses_per_core=150):
            "179671d6efda2996b8107764e90b3c2b"
            "33681aafdbae8aec257108abfcb7c600",
        RunSpec(benchmark="OCEAN", system="lpddr3-mobile",
                policy="mil-adaptive", accesses_per_core=150, seed=2):
            "4155a80cc13c02d811bc58c41d2c2eb9"
            "17d970f7244625ed2da788e8c88b044b",
        RunSpec(benchmark="CG", policy="bl14", accesses_per_core=150):
            "481ea5f399041d93ee6f03be9624a158"
            "e9f2b746a055d523bc28dc023c8083b9",
        # Captured before runs built only the zero tables they can
        # send: scheme sets beyond the default mil pair, and the
        # closed-page auto-precharge path.
        RunSpec(benchmark="GUPS", policy="cafo2", accesses_per_core=150):
            "a32443b8494585a4b47c5067309d848d"
            "3a5f9c3d6cfd0db7f32d3a1521f30481",
        RunSpec(benchmark="FFT", policy="mil-lwc12", lookahead=9,
                accesses_per_core=150):
            "6a125b0fbc5a3f93478ac9adb6709838"
            "5de5ff9024a9584dd8a5a2bb030e1073",
        RunSpec(benchmark="GUPS", policy="mil", accesses_per_core=150,
                mil_overrides={"long_scheme": "lwc12"}):
            "b6367a281cfefcfa5b1e885c9e5de42b"
            "281ac2017a187255e54278bbdef7fe19",
        RunSpec(benchmark="GUPS", policy="mil", accesses_per_core=150,
                system_overrides={"page_policy": "closed"}):
            "a896d80a2dd2dd0989f0df2c7e6ed026"
            "b74942572f54f27bde816df7639d03b2",
    }

    def test_cache_keys_are_unchanged(self):
        for spec, expected in self.GOLDEN_KEYS.items():
            assert cache_key(spec, self.FINGERPRINT) == expected

    def test_summary_bytes_are_unchanged(self):
        for spec, expected in self.GOLDEN_SUMMARIES.items():
            digest = hashlib.sha256(
                _canonical_summary(spec).encode()
            ).hexdigest()
            assert digest == expected, spec.slug


class TestAuditOutsideRunIdentity:
    """--audit observes a run; it must never change what the run *is*.

    The audit digest lands in ``stats`` (stripped by
    :func:`_canonical_summary`, exactly like telemetry's wall-clock
    entries), and the opt-in travels as an argument beside the spec
    (``run_spec(audit=)``, ``_execute(spec, audit)``) rather than as a
    RunSpec field — so summaries stay byte-identical and cache keys are
    untouched whether auditing is off or on.
    """

    def test_audited_lease_leaves_summary_bytes_unchanged(self):
        from repro.campaign.runner import _execute

        plain, _ = _execute(SPEC)
        audited, _ = _execute(SPEC, True)
        assert "audit" not in plain.pop("stats")
        assert audited.pop("stats")["audit"]["violations"] == 0
        assert json.dumps(audited, sort_keys=True) == json.dumps(
            plain, sort_keys=True
        )

    def test_report_mode_leaves_summary_bytes_unchanged(self):
        from repro.audit import AuditReport

        plain = _canonical_summary(SPEC)
        report = AuditReport()
        summary = run_spec(SPEC, audit=report).to_dict()
        assert summary.pop("stats")["audit"]["violations"] == 0
        assert report.clean and report.commands > 0
        assert json.dumps(summary, sort_keys=True) == plain

    def test_audit_cannot_enter_the_cache_key(self):
        # RunSpec has no audit field at all — the opt-in physically
        # cannot reach cache_key.  Pin that so a future "just add a
        # spec flag" refactor trips here first.
        assert "audit" not in RunSpec.__dataclass_fields__
        fingerprint = "f" * 16
        assert cache_key(SPEC, fingerprint) == cache_key(SPEC, fingerprint)
