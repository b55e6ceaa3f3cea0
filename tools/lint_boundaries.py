#!/usr/bin/env python
"""Boundary lint: the coding registry is the only sanctioned surface.

``BURST_FORMATS`` and ``_SCHEMES`` were dict-shaped views of scheme
knowledge; they are gone, and modules in the package must go through
:mod:`repro.coding.registry` (``scheme_info``, ``real_schemes``, ...)
so that scheme knowledge cannot fragment again.  This linter walks
every module under ``src/repro`` outside ``repro/coding`` and flags:

* ``from ...coding.pipeline import BURST_FORMATS`` (any coding module,
  any of the retired names), so the views cannot creep back,
* attribute access spelling one of the retired names on an imported
  module (``pipeline.BURST_FORMATS``), and
* importing a concrete *registered* codec class (``DBICode``,
  ``MiLCCode``, ...) from any coding module — consumers must resolve
  codecs through the registry (``codec_for``/``scheme_info``) so that
  singleton caching is never bypassed.

Unregistered analysis/helper classes (``OptimalStaticLWC``,
``BusInvertCode``, ``TransitionSignaling``) stay importable: they have
no registry entry to go through.

A module defining its *own* local name (e.g. an experiment's private
``_SCHEMES`` tuple of strings) is fine — the lint only polices imports
from ``repro.coding``.

Two further ownership boundaries from the event-core rebuild (see
DESIGN.md, "Event core"):

* ``repro.system.events`` (the cross-channel ``EventQueue``) is
  internal to ``repro.system`` — no module outside that package may
  import it, by any spelling;
* the controller's scheduling internals (``_schedule_query``,
  ``_derive_bank_candidate``, the per-direction scheduling records
  ``_records_rd``/``_records_wr``, their dirty sets
  ``_dirty_rd``/``_dirty_wr`` and their row-hit subsets
  ``_hit_records_rd``/``_hit_records_wr``) are internal to
  ``repro.controller`` — outside it, only the public ``step`` /
  ``next_event`` / ``sync`` surface exists.

And two for the whole package, ``repro.coding`` included:

* a string constant that is exactly ``REPRO_[A-Z0-9_]+`` must name one
  of the environment variables in :data:`ALLOWED_ENV`.  Any other is a
  process-wide switch; a run's observers (``--audit``, ``--telemetry``)
  travel as explicit arguments instead;
* ``runner._execute`` (one fresh run) is used only by the lease paths
  in :data:`EXECUTE_SITES`: the frame loop's lease handler, which every
  shard and ``repro worker`` runs, and the broker's inline slot.  A
  second execution path would be a second lease protocol.

Run from the repository root (CI does)::

    python tools/lint_boundaries.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

LEGACY_NAMES = frozenset({"BURST_FORMATS", "_SCHEMES"})
# Concrete classes with registry entries; everything outside
# repro.coding must reach them via codec_for().
CODEC_CLASS_NAMES = frozenset({
    "DBICode",
    "MiLCCode",
    "ThreeLWC",
    "CAFOCode",
    "KLimitedWeightCode",
    "PerfectThreeLWC",
})
SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
EXEMPT = "coding"  # the package that owns scheme knowledge
# Controller scheduling internals: the per-bank scheduling records,
# their dirty sets and the fused (pick, wake) query.  Only
# repro.controller may touch them.
CONTROLLER_INTERNALS = frozenset({
    "_schedule_query",
    "_derive_bank_candidate",
    "_records_rd",
    "_records_wr",
    "_dirty_rd",
    "_dirty_wr",
    "_hit_records_rd",
    "_hit_records_wr",
})
# The event heap's owning package; repro.system.events may not be
# imported from anywhere else.
EVENTS_OWNER = "system"
# The only environment variables src/repro may name.
ALLOWED_ENV = frozenset({
    "REPRO_CACHE_DIR",
    "REPRO_JOBS",
    "REPRO_NO_CACHE",
    "REPRO_SERVE_ADDRESS",
    "REPRO_SERVE_TOKEN",
})
ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")
# (module path under src/repro, qualified function) pairs that may use
# repro.campaign.runner._execute.
EXECUTE_SITES = frozenset({
    ("serve/worker.py", "_run_lease"),
    ("serve/shards.py", "LeaseBroker._inline_lease"),
})


def _is_system_events_module(module: str) -> bool:
    """True for any spelling of the ``repro.system.events`` module."""
    parts = module.split(".")
    for i, part in enumerate(parts[:-1]):
        if part == "system" and parts[i + 1] == "events":
            return True
    return False


def _is_coding_module(module: str) -> bool:
    """True for ``repro.coding`` / ``..coding.pipeline`` style modules."""
    parts = module.split(".")
    return "coding" in parts


def check_source(source: str, filename: str, package: str = "") -> list[str]:
    """Return ``file:line: message`` strings for every violation.

    ``package`` is the module's first-level subpackage under ``repro``
    (e.g. ``"system"``), used to exempt a boundary's owning package
    from its own rule.
    """
    problems = []
    tree = ast.parse(source, filename=filename)
    coding_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if package != EVENTS_OWNER:
                if _is_system_events_module(module) or (
                    module.split(".")[-1:] == [EVENTS_OWNER]
                    and any(a.name == "events" for a in node.names)
                ):
                    problems.append(
                        f"{filename}:{node.lineno}: imports the event "
                        "heap (repro.system.events); it is internal to "
                        "repro.system.simulator"
                    )
            if package != "controller":
                for alias in node.names:
                    if alias.name in CONTROLLER_INTERNALS:
                        problems.append(
                            f"{filename}:{node.lineno}: imports "
                            f"controller internal {alias.name}; use the "
                            "public step/next_event/sync surface"
                        )
            if not (_is_coding_module(module) or node.level and not module):
                continue
            for alias in node.names:
                if alias.name in LEGACY_NAMES and _is_coding_module(module):
                    problems.append(
                        f"{filename}:{node.lineno}: imports {alias.name} "
                        f"from {module!r}; use repro.coding.registry"
                    )
                if (
                    alias.name in CODEC_CLASS_NAMES
                    and _is_coding_module(module)
                ):
                    problems.append(
                        f"{filename}:{node.lineno}: imports codec class "
                        f"{alias.name} from {module!r}; resolve codecs "
                        "through repro.coding.registry (codec_for)"
                    )
                # Track `from .. import coding` / submodule aliases so
                # attribute spellings can be attributed to them.
                if _is_coding_module(module) or alias.name == "coding":
                    coding_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if (
                    package != EVENTS_OWNER
                    and _is_system_events_module(alias.name)
                ):
                    problems.append(
                        f"{filename}:{node.lineno}: imports the event "
                        "heap (repro.system.events); it is internal to "
                        "repro.system.simulator"
                    )
                if _is_coding_module(alias.name):
                    coding_aliases.add(
                        alias.asname or alias.name.split(".")[0]
                    )
        elif isinstance(node, ast.Attribute):
            if node.attr in LEGACY_NAMES:
                problems.append(
                    f"{filename}:{node.lineno}: accesses .{node.attr}; "
                    "use repro.coding.registry"
                )
            elif (
                node.attr in CONTROLLER_INTERNALS
                and package != "controller"
            ):
                problems.append(
                    f"{filename}:{node.lineno}: accesses controller "
                    f"internal .{node.attr}; use the public "
                    "step/next_event/sync surface"
                )
    return problems


def check_env_names(source: str, filename: str) -> list[str]:
    """Flag string constants naming a ``REPRO_*`` variable not allowed."""
    return [
        f"{filename}:{node.lineno}: names environment variable "
        f"{node.value}; pass it as an explicit argument instead "
        f"(allowed: {', '.join(sorted(ALLOWED_ENV))})"
        for node in ast.walk(ast.parse(source, filename=filename))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and ENV_NAME.fullmatch(node.value)
        and node.value not in ALLOWED_ENV
    ]


def check_execute_uses(source: str, filename: str,
                       module: str = "") -> list[str]:
    """Flag ``runner._execute`` used outside :data:`EXECUTE_SITES`.

    ``module`` is the file's path under ``src/repro`` (``serve/x.py``).
    Any reference counts, not only a call (a callback runs it too), and
    so does importing the name.
    """
    problems = []

    def visit(node, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            uses = (
                isinstance(child, ast.Attribute)
                and child.attr == "_execute"
                and isinstance(child.value, ast.Name)
                and child.value.id == "runner"
            ) or (
                isinstance(child, ast.ImportFrom)
                and any(a.name == "_execute" for a in child.names)
            )
            where = ".".join(scope)
            if uses and (module, where) not in EXECUTE_SITES:
                problems.append(
                    f"{filename}:{child.lineno}: uses runner._execute in "
                    f"{where or 'module scope'}; only the frame loop's "
                    "lease handler and the inline slot execute runs"
                )
            visit(child, scope)

    visit(ast.parse(source, filename=filename), ())
    return problems


def check_tree(root: Path = SRC_ROOT) -> list[str]:
    problems = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        source = path.read_text(encoding="utf-8")
        problems.extend(check_env_names(source, str(path)))
        problems.extend(
            check_execute_uses(source, str(path), rel.as_posix())
        )
        if rel.parts and rel.parts[0] == EXEMPT:
            continue
        package = rel.parts[0] if len(rel.parts) > 1 else ""
        problems.extend(check_source(source, str(path), package))
    return problems


def main() -> int:
    problems = check_tree()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(
            f"boundary lint: {len(problems)} violation(s)",
            file=sys.stderr,
        )
        return 1
    print("boundary lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
