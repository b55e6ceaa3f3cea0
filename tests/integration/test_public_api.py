"""Tests for the top-level public API surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent.parent / "src"


class TestLazyExports:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_lazy_attributes_resolve(self):
        import repro

        assert callable(repro.run)
        assert repro.NIAGARA_SERVER.name == "ddr4-server"
        assert len(repro.BENCHMARK_ORDER) == 11
        assert "fig16" in repro.ALL_EXPERIMENTS

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_dir_lists_lazy_names(self):
        import repro

        listing = dir(repro)
        for name in ("run", "MiLConfig", "SNAPDRAGON_MOBILE"):
            assert name in listing


class TestSubpackageImports:
    @pytest.mark.parametrize("module", [
        "repro.coding", "repro.dram", "repro.controller", "repro.core",
        "repro.system", "repro.energy", "repro.workloads",
        "repro.analysis", "repro.experiments", "repro.cli",
    ])
    def test_importable(self, module):
        import importlib

        assert importlib.import_module(module) is not None

    def test_all_exports_resolve(self):
        # Every name in each subpackage's __all__ must actually exist.
        import importlib

        for module_name in (
            "repro.coding", "repro.dram", "repro.controller",
            "repro.core", "repro.system", "repro.energy",
            "repro.workloads", "repro.analysis", "repro.serve",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.{name}"


class TestServeExports:
    def test_client_import_does_not_load_the_service(self):
        # A process that only talks to a service (repro submit, perfbench's
        # client) must not pay for the service, asyncio or numpy.
        code = (
            "import sys\n"
            "import repro.serve.client\n"
            "loaded = {'numpy', 'asyncio', 'multiprocessing'}"
            " & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            "from repro.serve import CampaignService\n"
            "assert CampaignService.__module__ == 'repro.serve.service'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
