"""The policy registry: names, builders, docs, and extension hooks."""

import pytest

from repro.core import framework
from repro.core.decision import MiLCOnlyPolicy, MiLPolicy
from repro.core.policies import (
    PolicyContext,
    get_policy,
    known_policy,
    make_factory,
    policy_names,
    policy_table,
    register_policy,
    unregister_policy,
)
from repro.controller.controller import AlwaysScheme

EXPECTED_ORDER = (
    "raw", "dbi", "milc", "mil", "mil-adaptive", "mil-lwc12", "cafo2",
    "cafo4", "3lwc", "bl12", "bl14",
)


class TestBuiltinRegistrations:
    def test_policy_order_is_stable(self):
        # The presentation order of every table and sweep; also the
        # order the pre-registry POLICIES tuple pinned.
        assert policy_names() == EXPECTED_ORDER

    def test_legacy_policies_view_is_live(self):
        # policy_names() replaced the legacy POLICIES tuple; policies
        # registered after import must show up in it.
        @register_policy("_tmp_policy", schemes=("dbi",),
                         description="t")
        def _build(ctx):
            return lambda: AlwaysScheme("dbi")

        try:
            assert "_tmp_policy" in policy_names()
        finally:
            unregister_policy("_tmp_policy")
        assert "_tmp_policy" not in policy_names()

    def test_every_builtin_builds(self):
        for name in EXPECTED_ORDER:
            factory = make_factory(name)
            policy = factory()
            assert hasattr(policy, "choose")
            assert hasattr(policy, "extra_cl")

    def test_builder_types(self):
        assert isinstance(make_factory("dbi")(), AlwaysScheme)
        assert isinstance(make_factory("milc")(), MiLCOnlyPolicy)
        assert isinstance(make_factory("mil")(), MiLPolicy)

    def test_mil_lwc12_uses_the_intermediate_code(self):
        policy = make_factory("mil-lwc12")()
        assert policy.config.long_scheme == "lwc12"

    def test_mil_adaptive_enables_the_fallback_tier(self):
        policy = make_factory("mil-adaptive")()
        assert policy.config.short_lookahead == 12

    def test_unknown_policy_lists_known_set(self):
        with pytest.raises(KeyError, match="huffman"):
            make_factory("huffman")
        assert not known_policy("huffman")

    def test_overrides_rejected_outside_mil_family(self):
        with pytest.raises(ValueError, match="dbi"):
            make_factory("dbi", mil_overrides={"lookahead": 5})

    def test_overrides_reach_the_config(self):
        factory = make_factory(
            "mil", mil_overrides={"write_optimization": False}
        )
        assert factory().config.write_optimization is False

    def test_energy_flags(self):
        for name in EXPECTED_ORDER:
            expected = name not in ("bl12", "bl14")
            assert get_policy(name).has_energy is expected, name


class TestGeneratedDocs:
    def test_framework_docstring_contains_every_policy(self):
        # The satellite fix: the hand-written table had drifted (it
        # omitted mil-lwc12).  Generated from the registry, it cannot.
        for name in policy_names():
            assert f"``{name}``" in framework.__doc__, name

    def test_table_matches_registry_descriptions(self):
        table = policy_table()
        assert "mil-lwc12" in table
        assert "Section 7.5.3" in table
        for name in policy_names():
            assert f"``{name}``" in table

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="mil"):
            register_policy("mil", schemes=("milc",))(lambda ctx: None)


class TestPolicyContext:
    def test_mil_config_applies_overrides(self):
        ctx = PolicyContext(mil_overrides={"lookahead": 9})
        assert ctx.mil_config().effective_lookahead == 9

    def test_mil_config_without_overrides(self):
        ctx = PolicyContext()
        assert ctx.mil_config(long_scheme="lwc12").long_scheme == "lwc12"

    def test_zeros_tables_flow_to_the_policy(self):
        tables = {"milc": None, "3lwc": None}
        policy = make_factory("mil", zeros_by_scheme=tables)()
        assert policy.zeros_by_scheme is tables


class TestRunSpecValidation:
    def test_spec_rejects_unknown_policy(self):
        from repro.campaign.spec import RunSpec

        with pytest.raises(KeyError, match="huffman"):
            RunSpec(benchmark="GUPS", policy="huffman")

    def test_spec_accepts_late_registrations(self):
        from repro.campaign.spec import RunSpec

        @register_policy("_tmp_spec_policy", schemes=("dbi",),
                         description="t")
        def _build(ctx):
            return lambda: AlwaysScheme("dbi")

        try:
            spec = RunSpec(benchmark="GUPS", policy="_tmp_spec_policy")
            assert spec.policy == "_tmp_spec_policy"
        finally:
            unregister_policy("_tmp_spec_policy")
