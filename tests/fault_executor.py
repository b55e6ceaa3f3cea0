"""Failure injection for campaign and service tests.

Every execution slot (the broker's inline slot, a forked shard, a
``repro worker`` daemon) calls :func:`repro.campaign.runner._execute`
through the module at call time, so patching that one attribute reaches
all of them; shards forked after the patch inherit it.  Each helper
takes pytest's ``monkeypatch`` (which undoes the patch at teardown) and
a sentinel path that must not exist yet: the first run to create it
misbehaves, exactly once across every process sharing the path.

* :func:`fail_once` — that run raises (a run that errors);
* :func:`kill_once` — that run SIGKILLs its own process (a shard that
  dies mid-lease).  It only trips in a forked child, never in the
  process that installed it, so it cannot take the test runner down.
"""

from __future__ import annotations

import os
import signal

from repro.campaign import runner

__all__ = ["fail_once", "kill_once"]


def _trip_once(sentinel) -> bool:
    """True exactly once per sentinel path, across racing processes."""
    try:  # "x" keeps the trip exactly-once across racing workers
        with open(sentinel, "x") as fh:
            fh.write("tripped")
    except FileExistsError:
        return False
    return True


def fail_once(monkeypatch, sentinel) -> None:
    """The next run raises ``RuntimeError("injected worker failure ...")``."""
    real = runner._execute

    def execute(spec, audit=False):
        if _trip_once(sentinel):
            raise RuntimeError(f"injected worker failure for {spec.slug}")
        return real(spec, audit)

    monkeypatch.setattr(runner, "_execute", execute)


def kill_once(monkeypatch, sentinel) -> None:
    """The next run in a forked child SIGKILLs that child."""
    real = runner._execute
    installer = os.getpid()

    def execute(spec, audit=False):
        if os.getpid() != installer and _trip_once(sentinel):
            os.kill(os.getpid(), signal.SIGKILL)
        return real(spec, audit)

    monkeypatch.setattr(runner, "_execute", execute)
