"""Suite-wide options.

The suite runs campaigns serially: ``REPRO_JOBS`` is unset for the
whole run (and for the CLI subprocesses it starts), so only a test that
passes ``jobs=`` explicitly fans out over worker shards.

``--codec-oracle`` runs the whole session on the per-element reference
codecs of ``tests/codec_oracle.py`` instead of the vectorised kernels:
every ``codec_for``, zero table and run in this process (and in the
campaign workers it forks) goes through the references, and every
result must come out the same.
"""

import os
from contextlib import ExitStack


def pytest_addoption(parser):
    parser.addoption(
        "--codec-oracle", action="store_true",
        help="serve every registered codec from its reference in "
             "tests/codec_oracle.py for the whole session",
    )


def pytest_configure(config):
    os.environ.pop("REPRO_JOBS", None)
    if config.getoption("--codec-oracle"):
        from tests.codec_oracle import reference_codecs

        oracle = ExitStack()
        oracle.enter_context(reference_codecs())
        config.add_cleanup(oracle.close)
