"""The MiL framework: decision logic, policies, and end-to-end runs."""

from .config import MiLConfig
from .decision import MiLCOnlyPolicy, MiLPolicy
from .framework import (
    RunSummary,
    energy_params_for,
    run,
    system_energy_params_for,
)
from .policies import (
    PolicyContext,
    PolicyInfo,
    get_policy,
    known_policy,
    policy_names,
    policy_table,
    register_policy,
    unregister_policy,
)

__all__ = [
    "MiLConfig",
    "MiLCOnlyPolicy",
    "MiLPolicy",
    "PolicyContext",
    "PolicyInfo",
    "RunSummary",
    "energy_params_for",
    "get_policy",
    "known_policy",
    "policy_names",
    "policy_table",
    "register_policy",
    "run",
    "system_energy_params_for",
    "unregister_policy",
]
