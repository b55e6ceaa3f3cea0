"""The policy registry: every decision policy declared in one place.

A *policy* names a controller-side decision procedure (which coding
scheme does each burst ship with?).  Historically the set lived in a
``POLICIES`` tuple plus an if-chain in ``make_policy_factory``; adding
one policy meant editing both, the module docstring table, and the CLI
choices.  Now a policy is one :func:`register_policy` call::

    @register_policy("mil-lwc14", schemes=("milc", "lwc14"),
                     mil_family=True,
                     description="mil with the (8, 14) 3-LWC long code")
    def _build(ctx):
        config = ctx.mil_config(long_scheme="lwc14")
        return lambda: MiLPolicy(config, ctx.zeros_by_scheme)

and ``POLICIES``, the framework docstring table, CLI ``--policy``
choices, and :class:`~repro.campaign.spec.RunSpec` validation all
derive from the registry.

The builder receives a :class:`PolicyContext` and returns the
*per-channel factory* the simulator calls once per memory controller.
Builders run once per simulation, in the parent process — expensive
setup (e.g. ``MiLConfig`` validation) happens there, not per channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..coding.registry import scheme_info
from ..controller.controller import AlwaysScheme
from .config import MiLConfig
from .decision import MiLCOnlyPolicy, MiLPolicy

__all__ = [
    "PolicyContext",
    "PolicyInfo",
    "get_policy",
    "known_policy",
    "make_factory",
    "policy_names",
    "policy_table",
    "register_policy",
    "sent_schemes",
    "unregister_policy",
]


@dataclass
class PolicyContext:
    """Everything a policy builder may need for one simulation.

    Attributes
    ----------
    zeros_by_scheme:
        Per-line zero tables (the write optimization consults them).
    lookahead:
        CLI/spec override of the rdyX window; ``None`` = natural value.
    mil_overrides:
        Extra :class:`MiLConfig` fields; only meaningful for the mil
        family (enforced by :func:`make_factory`).
    """

    zeros_by_scheme: Optional[dict] = None
    lookahead: Optional[int] = None
    mil_overrides: Optional[dict] = None

    def mil_config(self, **kwargs) -> MiLConfig:
        """Build the policy's canonical config plus any user overrides."""
        if self.mil_overrides:
            kwargs.update(self.mil_overrides)
        return MiLConfig(**kwargs)


@dataclass(frozen=True)
class PolicyInfo:
    """One registered policy.

    Attributes
    ----------
    name:
        Policy name as used on the CLI and in :class:`RunSpec`.
    builder:
        ``(PolicyContext) -> per-channel factory``.
    schemes:
        Coding schemes the policy can transmit with.  Energy is modelled
        iff every one has a zero-count path (``has_codec``), which is
        how the Figure 20 burst-length sweep points opt out.
    mil_family:
        Whether the policy owns a :class:`MiLConfig` (and therefore
        accepts ``mil_overrides``).
    description:
        One line for ``repro list`` and the generated policy table.
    """

    name: str
    builder: Callable[[PolicyContext], Callable]
    schemes: tuple = ()
    mil_family: bool = False
    description: str = ""

    @property
    def has_energy(self) -> bool:
        """Every scheme this policy ships has a zero-count path."""
        return all(scheme_info(s).has_codec for s in self.schemes)


_REGISTRY: dict[str, PolicyInfo] = {}


def register_policy(
    name: str,
    *,
    schemes: tuple,
    mil_family: bool = False,
    description: str = "",
):
    """Function decorator registering a policy builder under ``name``."""

    def deco(builder):
        existing = _REGISTRY.get(name)
        if existing is not None and existing.builder is not builder:
            raise ValueError(
                f"policy {name!r} is already registered; "
                "unregister_policy() first"
            )
        _REGISTRY[name] = PolicyInfo(
            name=name,
            builder=builder,
            schemes=tuple(schemes),
            mil_family=mil_family,
            description=description,
        )
        return builder

    return deco


def unregister_policy(name: str) -> None:
    """Remove a registration (tests and interactive experimentation)."""
    _REGISTRY.pop(name, None)


def get_policy(name: str) -> PolicyInfo:
    """The registry entry for ``name``; KeyError names the known set."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; known: {policy_names()}"
        ) from None


def known_policy(name: str) -> bool:
    return name in _REGISTRY


def policy_names() -> tuple[str, ...]:
    """Every registered policy name, in registration order."""
    return tuple(_REGISTRY)


def make_factory(
    policy: str,
    zeros_by_scheme: dict[str, np.ndarray] | None = None,
    lookahead: int | None = None,
    mil_overrides: dict | None = None,
):
    """Build a per-channel policy factory for :func:`simulate`.

    ``mil_overrides`` are extra :class:`MiLConfig` fields applied on
    top of the policy's canonical configuration; only the ``mil``
    family has a configuration, so overrides on other policies are an
    error rather than a silent no-op.
    """
    info = get_policy(policy)
    if mil_overrides and not info.mil_family:
        raise ValueError(f"policy {policy!r} has no MiLConfig to override")
    ctx = PolicyContext(
        zeros_by_scheme=zeros_by_scheme,
        lookahead=lookahead,
        mil_overrides=mil_overrides,
    )
    return info.builder(ctx)


def sent_schemes(
    policy: str, mil_overrides: dict | None = None
) -> tuple[str, ...]:
    """Schemes with a zero-count path that a run of ``policy`` can send.

    The policy's registered ``schemes``, plus any scheme its
    ``mil_overrides`` select: the base or long code, and the fallback
    code once ``short_lookahead`` is set (or the fallback is named, for
    policies whose own configuration sets the look-ahead).  These are
    the zero tables the run's energy model and write optimization can
    consult, so they are the only ones worth computing.
    """
    schemes = list(get_policy(policy).schemes)
    overrides = mil_overrides or {}
    for name in ("base_scheme", "long_scheme"):
        if name in overrides:
            schemes.append(overrides[name])
    if (
        overrides.get("short_lookahead") is not None
        or "fallback_scheme" in overrides
    ):
        schemes.append(
            overrides.get("fallback_scheme", MiLConfig.fallback_scheme)
        )
    return tuple(
        s for s in dict.fromkeys(schemes) if scheme_info(s).has_codec
    )


def policy_table() -> str:
    """The policy-name table, rendered from the registry.

    Used verbatim in the :mod:`repro.core.framework` module docstring so
    the documented set can never drift from the registered set.
    """
    rows = [
        (f"``{info.name}``", info.description or "(no description)")
        for info in _REGISTRY.values()
    ]
    left = max(len(name) for name, _ in rows)
    right = max(
        (max(len(line) for line in _wrap(desc)) for _, desc in rows),
        default=0,
    )
    bar = "=" * left + " " + "=" * right
    lines = [bar]
    for name, desc in rows:
        wrapped = _wrap(desc)
        lines.append(f"{name:<{left}} {wrapped[0]}")
        lines.extend(f"{'':<{left}} {cont}" for cont in wrapped[1:])
    lines.append(bar)
    return "\n".join(lines)


def _wrap(text: str, width: int = 58) -> list[str]:
    import textwrap

    return textwrap.wrap(text, width) or [""]


# ----------------------------------------------------------------------
# Built-in policies, in the paper's presentation order.
# ----------------------------------------------------------------------

def _always(scheme: str):
    return lambda ctx: (lambda: AlwaysScheme(scheme))


register_policy(
    "raw", schemes=("raw",),
    description="uncoded bursts (the only option on x4 devices, which "
                "lack DBI pins)",
)(_always("raw"))

register_policy(
    "dbi", schemes=("dbi",),
    description="baseline: DDR4's native DBI at burst length 8",
)(_always("dbi"))

register_policy(
    "milc", schemes=("milc",),
    description="MiLC-only (always the base code)",
)(lambda ctx: (lambda: MiLCOnlyPolicy("milc")))


@register_policy(
    "mil", schemes=("milc", "3lwc"), mil_family=True,
    description="the full opportunistic framework (MiLC + 3-LWC + rdyX)",
)
def _build_mil(ctx: PolicyContext):
    config = ctx.mil_config(lookahead=ctx.lookahead)
    return lambda: MiLPolicy(config, ctx.zeros_by_scheme)


@register_policy(
    "mil-adaptive", schemes=("milc", "3lwc", "dbi"), mil_family=True,
    description="mil plus an uncoded fallback tier under saturation "
                "(the Section 7.5.2 decision logic)",
)
def _build_mil_adaptive(ctx: PolicyContext):
    # The Section 7.5.2 extension: a third, uncoded tier engaged under
    # bus saturation (see MiLConfig.short_lookahead).
    config = ctx.mil_config(lookahead=ctx.lookahead, short_lookahead=12)
    return lambda: MiLPolicy(config, ctx.zeros_by_scheme)


@register_policy(
    "mil-lwc12", schemes=("milc", "lwc12"), mil_family=True,
    description="mil with the intermediate (8, 12) 3-LWC as its long "
                "code (Section 7.5.3)",
)
def _build_mil_lwc12(ctx: PolicyContext):
    # Section 7.5.3's intermediate long code: (8,12) 3-LWC at BL12
    # captures shorter idle windows than the (8,17) code's BL16.
    config = ctx.mil_config(lookahead=ctx.lookahead, long_scheme="lwc12")
    return lambda: MiLPolicy(config, ctx.zeros_by_scheme)


register_policy(
    "cafo2", schemes=("cafo2",),
    description="CAFO with two fixed iterations, under the MiL framework",
)(_always("cafo2"))

register_policy(
    "cafo4", schemes=("cafo4",),
    description="CAFO with four fixed iterations",
)(_always("cafo4"))

register_policy(
    "3lwc", schemes=("3lwc",),
    description="always-on 3-LWC (the Figure 2 strawman)",
)(_always("3lwc"))

register_policy(
    "bl12", schemes=("bl12",),
    description="fixed burst length 12 (Figure 20 sweep; no energy model)",
)(_always("bl12"))

register_policy(
    "bl14", schemes=("bl14",),
    description="fixed burst length 14 (Figure 20 sweep; no energy model)",
)(_always("bl14"))
