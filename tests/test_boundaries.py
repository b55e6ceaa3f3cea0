"""The package boundaries hold: nothing outside repro.coding may bring
back the retired BURST_FORMATS/_SCHEMES views, src/repro names no
environment variable beyond the allowed five, and only the frame loop
and the inline slot run specs (see tools/lint_boundaries.py, which CI
runs as a standalone step)."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINTER = REPO_ROOT / "tools" / "lint_boundaries.py"


def _load_linter():
    spec = importlib.util.spec_from_file_location("lint_boundaries", LINTER)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("lint_boundaries", module)
    spec.loader.exec_module(module)
    return module


class TestBoundaryLint:
    def test_tree_is_clean(self):
        lint = _load_linter()
        assert lint.check_tree() == []

    def test_catches_legacy_import(self):
        lint = _load_linter()
        bad = "from ..coding.pipeline import BURST_FORMATS\n"
        problems = lint.check_source(bad, "fake.py")
        assert len(problems) == 1
        assert "BURST_FORMATS" in problems[0]
        assert "registry" in problems[0]

    def test_catches_attribute_spelling(self):
        lint = _load_linter()
        bad = (
            "from repro.coding import pipeline\n"
            "x = pipeline.BURST_FORMATS['dbi']\n"
        )
        problems = lint.check_source(bad, "fake.py")
        assert any("BURST_FORMATS" in p for p in problems)

    def test_catches_codec_class_import(self):
        lint = _load_linter()
        bad = "from ..coding.milc import MiLCCode\n"
        problems = lint.check_source(bad, "fake.py")
        assert len(problems) == 1
        assert "MiLCCode" in problems[0]
        assert "codec_for" in problems[0]

    def test_catches_codec_class_import_from_package(self):
        lint = _load_linter()
        bad = "from repro.coding import DBICode, codec_for\n"
        problems = lint.check_source(bad, "fake.py")
        assert len(problems) == 1
        assert "DBICode" in problems[0]

    def test_allows_unregistered_helper_classes(self):
        lint = _load_linter()
        good = (
            "from ..coding.optimal_lwc import OptimalStaticLWC\n"
            "from ..coding.businvert import BusInvertCode\n"
            "from ..coding.transition import TransitionSignaling\n"
        )
        assert lint.check_source(good, "fake.py") == []

    def test_allows_local_tuples_and_registry(self):
        lint = _load_linter()
        good = (
            "_SCHEMES = ('raw', 'dbi')\n"
            "from ..coding.registry import scheme_info, real_schemes\n"
            "bl = scheme_info('dbi').burst_length\n"
        )
        assert lint.check_source(good, "fake.py") == []


class TestEventCoreBoundaries:
    """The event-core ownership rules (DESIGN.md, "Event core")."""

    def test_catches_event_heap_import(self):
        lint = _load_linter()
        for bad in (
            "from repro.system.events import EventQueue\n",
            "from ..system.events import EventQueue\n",
            "from repro.system import events\n",
            "import repro.system.events\n",
        ):
            problems = lint.check_source(bad, "fake.py")
            assert len(problems) == 1, bad
            assert "repro.system.events" in problems[0]

    def test_owner_package_may_use_the_heap(self):
        lint = _load_linter()
        good = "from .events import EventQueue\n"
        assert lint.check_source(good, "fake.py", package="system") == []

    def test_other_events_modules_stay_importable(self):
        lint = _load_linter()
        good = (
            "from .events import RunEvent, null_sink\n"
            "from repro.campaign.events import ProgressLine\n"
            "from repro.serve.events import EventLog\n"
        )
        assert lint.check_source(good, "fake.py", package="campaign") == []

    def test_catches_controller_internal_attribute(self):
        lint = _load_linter()
        bad = (
            "mc = build()\n"
            "req = mc._derive_bank_candidate(bucket, row)\n"
            "pick, wake = mc._schedule_query(now)\n"
        )
        problems = lint.check_source(bad, "fake.py")
        assert len(problems) == 2
        assert "_derive_bank_candidate" in problems[0]
        assert "_schedule_query" in problems[1]

    def test_controller_package_is_exempt(self):
        lint = _load_linter()
        good = "pick, wake = self._schedule_query(now)\n"
        assert lint.check_source(good, "fake.py", package="controller") == []

    def test_public_surface_stays_clean(self):
        lint = _load_linter()
        good = (
            "mc.sync(now)\n"
            "issued = mc.step(now)\n"
            "wake = mc.next_event(now)\n"
        )
        assert lint.check_source(good, "fake.py") == []


class TestEnvironmentSwitches:
    """src/repro names only the allowed REPRO_* environment variables."""

    def test_catches_unlisted_variables(self):
        lint = _load_linter()
        for bad, name in (
            ('AUDIT_ENV = "REPRO_AUDIT"\n', "REPRO_AUDIT"),
            ('on = bool(os.environ.get("REPRO_TELEMETRY"))\n',
             "REPRO_TELEMETRY"),
        ):
            problems = lint.check_env_names(bad, "fake.py")
            assert len(problems) == 1, bad
            assert name in problems[0]
            assert "explicit argument" in problems[0]

    def test_allowed_variables_and_prose_pass(self):
        lint = _load_linter()
        good = (
            '"""Set REPRO_CACHE_DIR; REPRO_AUDIT is gone."""\n'
            + "".join(
                f"os.environ.get({name!r})\n"
                for name in sorted(lint.ALLOWED_ENV)
            )
        )
        assert lint.check_env_names(good, "fake.py") == []

    def test_tree_check_covers_the_coding_package(self, tmp_path):
        lint = _load_linter()
        (tmp_path / "coding").mkdir()
        (tmp_path / "coding" / "kernel.py").write_text(
            'IMPL_ENV = "REPRO_CODEC_IMPL"\n'
        )
        problems = lint.check_tree(tmp_path)
        assert len(problems) == 1
        assert "REPRO_CODEC_IMPL" in problems[0]


class TestExecuteSites:
    """Only the frame loop's lease handler and the broker's inline slot
    may run a spec (``runner._execute``)."""

    # The pipe-era shard loop: a second execution path beside the frame
    # loop, which the lint must reject.
    PIPE_SHARD = (
        "from ..campaign import runner\n"
        "def _shard_main(conn, audit):\n"
        "    while True:\n"
        "        message = conn.recv()\n"
        "        body, wall_s = runner._execute(message[1], audit)\n"
        "        conn.send(('ok', body, wall_s))\n"
    )

    def test_catches_a_second_lease_loop(self):
        lint = _load_linter()
        problems = lint.check_execute_uses(
            self.PIPE_SHARD, "fake.py", "serve/shards.py"
        )
        assert len(problems) == 1
        assert "_shard_main" in problems[0]

    def test_catches_callbacks_and_imports(self):
        lint = _load_linter()
        bad = (
            "from ..campaign.runner import _execute\n"
            "class WorkerDaemon:\n"
            "    async def _run_lease(self, spec):\n"
            "        return await self._loop.run_in_executor(\n"
            "            None, runner._execute, spec)\n"
        )
        problems = lint.check_execute_uses(bad, "fake.py", "serve/worker.py")
        assert len(problems) == 2
        assert "module scope" in problems[0]
        assert "WorkerDaemon._run_lease" in problems[1]

    def test_sites_are_module_and_function(self):
        lint = _load_linter()
        good = (
            "def _run_lease(message):\n"
            "    return runner._execute(spec_of(message), True)\n"
        )
        assert lint.check_execute_uses(good, "w.py", "serve/worker.py") == []
        assert len(lint.check_execute_uses(good, "w.py", "serve/x.py")) == 1

    def test_tree_uses_exactly_the_allowed_sites(self, monkeypatch):
        lint = _load_linter()
        monkeypatch.setattr(lint, "EXECUTE_SITES", frozenset())
        problems = lint.check_tree()
        assert len(problems) == 2
        assert any("serve/worker.py" in p and " _run_lease;" in p
                   for p in problems)
        assert any("serve/shards.py" in p and "LeaseBroker._inline_lease"
                   in p for p in problems)
