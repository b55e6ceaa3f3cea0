"""The frozen description of one simulation run.

A :class:`RunSpec` is the single currency of the campaign engine: the
experiment modules plan lists of specs, the runner executes them, the
cache keys files on them, and results are looked up by spec equality.
Specs are hashable and round-trip through ``canonical()`` JSON, so they
cross lease frames to every worker and serve as dict keys on both sides.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from ..system.machine import SYSTEMS, SystemConfig

__all__ = ["RunSpec"]

# Override values must survive a JSON round-trip unchanged so that
# canonical() is a faithful, stable encoding of the spec.
_PRIMITIVES = (str, int, float, bool, type(None))

Overrides = "tuple[tuple[str, object], ...]"


def _freeze_overrides(value) -> tuple:
    """Normalise a dict or iterable of pairs into a sorted tuple."""
    if isinstance(value, dict):
        pairs = value.items()
    else:
        pairs = tuple(value)
    out = []
    for key, val in pairs:
        if not isinstance(key, str):
            raise TypeError(f"override key {key!r} must be a string")
        if not isinstance(val, _PRIMITIVES):
            raise TypeError(
                f"override {key}={val!r} is not JSON-primitive; "
                "campaign specs must be content-addressable"
            )
        out.append((key, val))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one (benchmark, system, policy) run.

    ``system`` names a Table 2 base machine (a :data:`SYSTEMS` key);
    ``system_overrides`` are ``dataclasses.replace`` fields applied on
    top of it (how the design-space studies describe their variants).
    ``mil_overrides`` are :class:`~repro.core.config.MiLConfig` fields
    applied to the decision logic of ``mil``-family policies.
    """

    benchmark: str
    system: str = "ddr4-server"
    policy: str = "mil"
    lookahead: int | None = None
    accesses_per_core: int = 5000
    seed: int = 0
    system_overrides: tuple = field(default=())
    mil_overrides: tuple = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmark", self.benchmark.upper())
        object.__setattr__(
            self, "system_overrides", _freeze_overrides(self.system_overrides)
        )
        object.__setattr__(
            self, "mil_overrides", _freeze_overrides(self.mil_overrides)
        )
        if self.system not in SYSTEMS:
            raise KeyError(
                f"unknown system {self.system!r}; known: {sorted(SYSTEMS)}"
            )
        # Validated against the live policy registry, so specs naming a
        # program-registered policy (examples/custom_codec.py) pass.
        # Imported lazily: the core package imports the campaign layer's
        # consumers.  Workers rebuild leased specs from canonical JSON,
        # so they validate too (a forked shard inherits the registry).
        from ..core.policies import known_policy, policy_names

        if not known_policy(self.policy):
            raise KeyError(
                f"unknown policy {self.policy!r}; known: {policy_names()}"
            )
        # Benchmarks get the same spec-build-time treatment: an unknown
        # name must fail here with the known list, not deep inside trace
        # building in a worker.  Accepts Table 3 names and canonical
        # MIX@... traffic-mix names (repro.workloads.mixed).
        from ..workloads.benchmarks import validate_benchmark

        validate_benchmark(self.benchmark)
        if self.system_overrides:
            # Unknown field paths fail at spec build time too; the
            # values were already checked JSON-primitive above.
            try:
                self.resolve_system()
            except (TypeError, AttributeError) as exc:
                raise ValueError(
                    f"bad system override for {self.system!r}: {exc}"
                ) from None
        if self.accesses_per_core <= 0:
            raise ValueError("accesses_per_core must be positive")
        if self.lookahead is not None and self.lookahead < 0:
            raise ValueError("lookahead must be non-negative")

    def resolve_system(self) -> SystemConfig:
        """Materialise the (possibly overridden) system configuration.

        Override keys may be dotted paths into nested config
        dataclasses (``geometry.ranks``, ``prefetcher.degree``, ...):
        each path segment names a field, and the innermost value must
        still be JSON-primitive.  That is how scenario grids sweep
        per-channel rank counts without registering system variants.
        """
        config = SYSTEMS[self.system]
        if self.system_overrides:
            config = _replace_path(config, dict(self.system_overrides))
        return config

    def canonical(self) -> dict:
        """A JSON-safe dict that uniquely encodes this spec."""
        return {
            "benchmark": self.benchmark,
            "system": self.system,
            "policy": self.policy,
            "lookahead": self.lookahead,
            "accesses_per_core": self.accesses_per_core,
            "seed": self.seed,
            "system_overrides": [list(p) for p in self.system_overrides],
            "mil_overrides": [list(p) for p in self.mil_overrides],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True)

    @property
    def slug(self) -> str:
        """Human-readable cache-file stem (not unique on its own)."""
        look = "auto" if self.lookahead is None else str(self.lookahead)
        parts = [
            self.benchmark, self.system, self.policy,
            f"x{look}", f"n{self.accesses_per_core}", f"s{self.seed}",
        ]
        if self.system_overrides or self.mil_overrides:
            parts.append(f"o{len(self.system_overrides)}"
                         f"m{len(self.mil_overrides)}")
        return "-".join(parts)


def _replace_path(config, overrides: dict):
    """``dataclasses.replace`` with dotted-path keys, recursively."""
    direct: dict = {}
    nested: dict[str, dict] = {}
    for key, value in overrides.items():
        head, _, rest = key.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            direct[head] = value
    for head, sub in nested.items():
        base = direct.get(head, getattr(config, head))
        direct[head] = _replace_path(base, sub)
    return dataclasses.replace(config, **direct)
