"""serve-closed-loop: one client driving a real ``repro serve``.

The service runs as a subprocess (``repro serve --shards 2`` on a
Unix socket, journal on) over a fresh store.  One client submits a
job, follows its event stream to the terminal event, fetches the
result rows, and only then submits the next job (a closed loop with
one client).  Each job holds one small fresh spec, whose benchmark,
system and policy are dealt from decks the seed shuffles, plus up to
six specs repeated from earlier jobs, which the store already holds.
The service layer does most of the work; simulation little.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from common import (
    ROOT, DigestCheck, clock, mean, median, p90, ratio, summary_digest,
)

NAME = "serve-closed-loop"
ACCESSES_PER_CORE = 150
BENCHMARKS = ("MM", "STRMATCH", "HISTOGRAM", "ART", "MG", "FFT",
              "SCALPARC", "SWIM", "OCEAN", "CG", "GUPS")
SYSTEMS = ("ddr4-server", "lpddr3-mobile")
POLICIES = ("raw", "dbi", "milc", "mil", "mil-adaptive", "mil-lwc12",
            "cafo2", "cafo4", "3lwc")
PAIRS = tuple((bench, system) for bench in BENCHMARKS for system in SYSTEMS)
REPEATS = 6
# At least this many jobs (five decks, see job_plan) per untraced run,
# so that ten job latencies lie beyond p90.
MIN_JOBS = 5 * len(PAIRS)
# Fresh specs of the first jobs re-run in-process to check served rows.
SAMPLE = 10
START_TIMEOUT_S = 60.0
BYPASSED = ("campaign.",)


def job_plan(seed: int):
    """Endless job sequence drawn from ``seed``: lists of RunSpecs.

    Fresh specs are dealt from shuffled decks.  Each deck of
    ``len(PAIRS)`` jobs holds every (benchmark, system) pair once, and
    policies come round in turn, in an order the seed shuffles too.  A
    job's time is mostly its fresh spec's execution, which depends
    mostly on benchmark and system (GUPS takes three times as long as
    STRMATCH), so a run of whole decks has the same mix on every seed
    and its p90 does not move with how many GUPS jobs a seed drew.

    Job ``k``'s fresh spec has a spec seed no other job (of any
    workload seed) uses, so it is never in the store when submitted.
    """
    from repro.campaign import RunSpec

    rng = random.Random(seed)
    fresh: list = []
    policies: list = []
    k = 0
    while True:
        for bench, system in rng.sample(PAIRS, len(PAIRS)):
            if not policies:
                policies = rng.sample(POLICIES, len(POLICIES))
            spec = RunSpec(bench, system, policies.pop(),
                           accesses_per_core=ACCESSES_PER_CORE,
                           seed=seed * 1_000_003 + k)
            repeats = rng.sample(fresh, min(REPEATS, len(fresh)))
            fresh.append(spec)
            k += 1
            yield [spec, *repeats]


class State:
    def __init__(self, seed, client) -> None:
        self.seed = seed
        self.client = client
        self.jobs: list = []  # (specs, descriptor, events, rows)
        self.digests: DigestCheck | None = None


@contextmanager
def session(seed: int, scratch):
    """Start the service on a fresh store; stop it however we leave."""
    from repro.serve.client import ServeClient, ServeError

    sock = (scratch / "serve.sock").relative_to(ROOT)
    shards = min(2, os.cpu_count() or 1)
    env = dict(os.environ, REPRO_CACHE_DIR=str(scratch / "runs"))
    with open(scratch / "serve.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", str(sock),
             "--shards", str(shards), "--store", str(scratch / "store")],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=log,
        )
        try:
            client = ServeClient(f"unix:{sock}", timeout=30.0)
            deadline = time.monotonic() + START_TIMEOUT_S
            while True:
                try:
                    client.health()
                    break
                except (OSError, ServeError):
                    if (proc.poll() is not None
                            or time.monotonic() > deadline):
                        raise RuntimeError("repro serve did not come up "
                                           f"(exit {proc.poll()})")
                    time.sleep(0.005)
            yield State(seed, client)
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _one_job(client, specs):
    """Submit, follow the event stream, fetch rows; returns job_s too."""
    t0 = clock()
    job = client.submit_specs(specs)
    events = list(client.events(job["id"]))
    rows = client.results(job["id"])
    return job, events, rows, clock() - t0


def measure(state, seconds: float, tally, pins: dict,
            tracer=None) -> tuple[dict, list[str]]:
    """Closed loop for ``seconds``.  Untraced, it runs whole decks and
    at least MIN_JOBS jobs.

    With a tracer, every second job runs inside a job span with the
    client calls wrapped, and the untraced jobs between them give the
    tracing overhead.
    """
    from repro.serve.client import ServeClient, ServeError

    state.digests = DigestCheck(tally, pins)
    plain: list[float] = []
    traced: list[float] = []
    plan = job_plan(state.seed)
    start = clock()
    # Untraced runs need MIN_JOBS jobs and end on a whole deck; traced
    # ones need one job of each kind.
    least, step = (MIN_JOBS, len(PAIRS)) if tracer is None else (2, 1)
    for index, specs in enumerate(plan):
        elapsed = clock() - start
        if elapsed >= seconds and index >= least and index % step == 0:
            break
        use_tracer = tracer is not None and index % 2 == 1
        tally.attempted += 1
        try:
            if use_tracer:
                for name in ("submit", "events", "results"):
                    tracer.patch(ServeClient, name, "serve")
                try:
                    with tracer.span("job", "serve", req=f"job{index}"):
                        job, events, rows, job_s = _one_job(
                            state.client, specs)
                finally:
                    tracer.restore()
            else:
                job, events, rows, job_s = _one_job(state.client, specs)
        except (ServeError, OSError, ValueError) as exc:
            tally.fail(f"job {index} raised {exc!r}")
            continue
        state.jobs.append((specs, job, events, rows))
        (traced if use_tracer else plain).append(job_s)
    loop_s = clock() - start
    service = state.client.metrics()

    executed = _check_jobs(state, tally)
    exec_s = [wall for wall, _ in executed]
    metrics = {
        # Fresh specs mix benchmarks; see fig16.py on the mean.
        "run_s": mean(exec_s),
        "records_per_s": ratio(sum(rec for _, rec in executed),
                               sum(exec_s)),
        # One deck is the pass over the plan: its mean wall time, as
        # the loop ran ``index`` jobs.  A median of a dozen decks is
        # noisier, as deck times vary more than the run's mean does.
        "campaign_s": ratio(loop_s * len(PAIRS), index),
        "job_s.p50": median(plain),
        "job_s.p90": p90(plain),
        "jobs_per_s": ratio(len(state.jobs), loop_s),
    }
    report = [f"jobs {len(plain)} untraced, {len(traced)} traced "
              f"in {loop_s:.3f} s"]
    report += state.digests.report()
    if tracer is not None:
        metrics.update(_serve_metrics(state, tracer, service))
        metrics["trace.traced_s"] = mean(traced)
        metrics["trace.overhead_s"] = mean(traced) - mean(plain)
    return metrics, report


def _check_jobs(state, tally) -> list[tuple[float, int]]:
    """Check every job's outcome and rows, outside the timed loop.

    A job counts as failed once, at its first problem: an end other
    than ``done``, a missing row, or a row whose digest disagrees.
    Returns (exec seconds, trace records) of each spec a shard ran.
    """
    executed = []
    for index, (specs, job, events, rows) in enumerate(state.jobs):
        last = events[-1] if events else {}
        ok = tally.check(
            last.get("scope") == "job" and last.get("kind") == "done",
            f"job {index} ({job.get('id')}) ended "
            f"{last.get('kind', 'without events')}")
        by_spec = {json.dumps(row["spec"], sort_keys=True): row
                   for row in rows}
        for spec in specs:
            row = by_spec.get(spec.canonical_json())
            if not ok:
                break
            if row is None:
                ok = tally.check(False, f"job {index}: no row for "
                                        f"{spec.slug}")
            else:
                ok = state.digests.check(
                    spec.slug, summary_digest(row["summary"]), f"job {index}")
        records = {row["cache_key"]: row["summary"]["trace_records"]
                   for row in rows}
        for event in events:
            if event.get("kind") == "finished" and event.get("executed"):
                executed.append((event["wall_s"],
                                 records.get(event["key"], 0)))
    return executed


def _serve_metrics(state, tracer, service) -> dict:
    client: dict = {}  # client span name -> durations
    for span in tracer.spans:
        client.setdefault(span.name, []).append(span.dur)
    queue_wait, exec_s = [], []
    for _specs, _job, events, _rows in state.jobs:
        queued, started = {}, {}
        for event in events:
            if event.get("scope") != "run":
                continue
            key = event.get("key")
            if event["kind"] == "queued":
                queued[key] = event["ts"]
            elif event["kind"] == "started":
                started[key] = event["ts"]
                if key in queued:
                    queue_wait.append(event["ts"] - queued[key])
            elif event["kind"] == "finished" and event.get("executed"):
                exec_s.append(event["wall_s"])
    counters = service["counters"]
    submitted = sum(len(specs) for specs, *_ in state.jobs)
    return {
        "serve.submit_s.p50": median(client.get("ServeClient.submit", [])),
        "serve.wait_s.p50": median(
            client.get("ServeClient.events.consume", [])),
        "serve.results_s.p50": median(
            client.get("ServeClient.results", [])),
        "serve.queue_wait_s.p50": median(queue_wait),
        "serve.exec_s.p50": median(exec_s),
        "serve.cache_hit_ratio": ratio(
            counters["manager"]["cache_hits"], submitted),
        "serve.retried": counters["service"]["retried"],
        "serve.died": counters["service"]["died"],
        "serve.rejected": counters["manager"]["rejected"],
    }


def verify(state, tally, tracer=None):
    """Re-run the first jobs' fresh specs in-process; rows must agree.

    This runs after the service stopped, outside the timed loop.  With
    a tracer the replays are traced layer by layer, since the shards
    that ran the jobs are other processes.
    """
    from layers import replay

    fresh = [specs[0] for specs, *_ in state.jobs[:SAMPLE]]
    return replay(fresh, tally, state.digests, tracer)
