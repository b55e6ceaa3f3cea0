"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the benchmark suite, systems, and coding policies.
``run BENCH [--system S] [--policy P] [--scale N] [--baseline]``
    Simulate one benchmark and print the summary (optionally next to
    the DBI baseline).
``experiment ID [--scale N]``
    Regenerate one of the paper's tables/figures (``fig16``, ``table4``,
    ...; see ``list``).
``campaign [ID ...] [--jobs N] [--scale N] [--no-report]``
    Run every simulation an entire figure set needs as one
    content-addressed campaign — cache hits are free, misses fan out
    over a process pool — with a live progress line, then print the
    figures.
``suite [--system S] [--policy P] [--scale N] [--jobs N]``
    Run the whole 11-benchmark suite under one policy, normalized to
    the DBI baseline.
``trace BENCH OUT.csv [--system S] [--policy P] [--scale N]``
    Simulate one benchmark, dump the data-bus transaction log to CSV or
    JSON-lines, and re-audit the dump against the DDRx protocol rules.
``telemetry PATH.metrics.jsonl``
    Pretty-print a saved telemetry metrics dump.
``fuzz [--schedules N] [--seed S] [--requests R]``
    Drive the controller with seeded adversarial schedules across the
    timing × burst-length × rank × page-policy grid and replay every
    command log through the independent protocol auditor (see
    ``docs/VALIDATION.md``).
``scenario {list,show,compile,run} [PATH ...] [--dry-run] [--jobs N]
[--out PATH]``
    Work with declarative scenario files (``docs/SCENARIOS.md``):
    ``list`` the checked-in ``scenarios/`` corpus, ``show`` one file's
    canonical form, ``compile`` (or ``run --dry-run``) to print the
    expanded RunSpec matrix as byte-stable JSON lines, ``run`` to
    execute the matrix on the campaign engine and write schema-versioned
    ``repro.scenario/v1`` JSONL rows (default
    ``results/scenarios/<NAME>.jsonl``).
``bench [-k PAT] [--smoke] [--list] [--out PATH] [--compare BASE]
[--max-regression PCT] [--update-baseline] [--profile BACKEND]``
    Run the registered wall-clock benchmark suite (see
    ``docs/BENCHMARKS.md``), write a ``BENCH_<timestamp>.json`` report,
    and optionally gate against a committed baseline or dump
    per-benchmark profiles.
``serve [--socket PATH | --host H --port P] [--shards N] [--store DIR]
[--token T] [--metrics-interval S] [--no-journal]``
    Run the long-lived campaign service (``docs/SERVICE.md``): an async
    job API over a lease broker (local shards + remote workers), a
    durable job journal, and a multi-tenant result store.  Foreground;
    stop with Ctrl-C.
``worker --connect ADDR [--token T] [--name N] [--reconnect-delay S]``
    Contribute one remote execution slot to a running service; redials
    until stopped.
``submit SCENARIO [--address A] [--namespace NS] [--priority N]
[--wait] [--results PATH] [--follow]``
    Submit a scenario (name or file path) to a running service.
    ``--wait`` blocks until the job is terminal; ``--results`` writes
    the completed rows as JSONL; ``--follow`` streams job events.
``jobs [ID] [--address A] [--cancel] [--events] [--namespace NS]
[--state S] [--stats]``
    Inspect a running service: list jobs, show or cancel one, stream
    one job's events, or print service stats.

``--jobs`` (or the ``REPRO_JOBS`` environment variable) sets the
process-pool width for campaign-backed commands; ``-j1`` stays serial.

``run`` and ``campaign`` accept ``--audit`` (record each run's DRAM
command log and re-derive every Table 2 constraint from it post-run;
rides outside the run's identity, so cache keys are unchanged) and
``--telemetry`` (record metrics and a
cycle/wall-clock event trace; see ``docs/OBSERVABILITY.md``) and
``--trace-out PATH`` (write ``PATH.trace.json`` in Chrome trace-event
format — open it at https://ui.perfetto.dev — plus
``PATH.metrics.jsonl`` for the ``telemetry`` verb; implies
``--telemetry``; defaults to a stem under ``traces/`` when given no
value).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .analysis.report import format_table
from .campaign import CampaignRunner, ProgressLine, RunSpec
from .core.framework import run_spec
from .core.policies import policy_names
from .system.machine import SYSTEMS
from .workloads.benchmarks import BENCHMARK_ORDER, BENCHMARKS

__all__ = ["main"]

DEFAULT_SCALE = 4000

# Mirrors repro.bench.timing defaults; repeated here so building the
# argument parser does not import numpy and the whole bench package.
_BENCH_REPEATS = 7
_BENCH_WARMUP = 2


def _system(name: str):
    try:
        return SYSTEMS[name]
    except KeyError:
        sys.exit(f"unknown system {name!r}; known: {sorted(SYSTEMS)}")


def _spec(args, benchmark: str, policy: str) -> RunSpec:
    _system(args.system)  # friendly exit on unknown names
    return RunSpec(
        benchmark=benchmark,
        system=args.system,
        policy=policy,
        accesses_per_core=args.scale,
    )


def _telemetry_session(args, label: str, time_unit: str):
    """Build a TelemetrySession when --telemetry/--trace-out ask for one."""
    if not (args.telemetry or args.trace_out):
        return None
    from . import telemetry

    telemetry.set_enabled(True)
    return telemetry.TelemetrySession(label=label, time_unit=time_unit)


def _write_telemetry(stem: str, session) -> None:
    """Write ``<stem>.trace.json`` + ``<stem>.metrics.jsonl``."""
    from .telemetry import write_chrome_trace, write_metrics_jsonl

    for suffix in (".trace.json", ".metrics.jsonl", ".json", ".jsonl"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    trace_path = write_chrome_trace(f"{stem}.trace.json", session)
    metrics_path = write_metrics_jsonl(f"{stem}.metrics.jsonl", session)
    print(
        f"telemetry: wrote {trace_path} (Perfetto) and {metrics_path} "
        "(repro telemetry)",
        file=sys.stderr,
    )


def cmd_list(_args) -> int:
    print("Benchmarks (Table 3):")
    for name in BENCHMARK_ORDER:
        spec = BENCHMARKS[name]
        print(f"  {name:10s} {spec.suite:14s} {spec.input_desc}")
    print("\nSystems (Table 2):")
    for name in SYSTEMS:
        cfg = SYSTEMS[name]
        print(f"  {name:14s} {cfg.cores} cores @ {cfg.cpu_ghz} GHz, "
              f"{cfg.timing.name}")
    from .coding.registry import scheme_items
    from .core.policies import get_policy

    print("\nCoding schemes:")
    for name, info in scheme_items():
        codec = "codec" if info.has_codec else "format-only"
        print(f"  {name:10s} BL{info.burst_length:<3d} "
              f"+{info.extra_latency}CL  {codec:11s} {info.description}")
    print("\nCoding policies:")
    for name in policy_names():
        print(f"  {name:14s} {get_policy(name).description}")
    from .experiments import ALL_EXPERIMENTS

    print("\nExperiments:")
    print("  " + ", ".join(ALL_EXPERIMENTS))
    from .scenario import ScenarioError, discover, load_scenario

    paths = discover()
    if paths:
        print("\nScenarios (scenarios/):")
        for path in paths:
            try:
                scn = load_scenario(path)
            except ScenarioError:
                print(f"  {path.name:24s} INVALID (see 'repro scenario "
                      f"show {path}')")
                continue
            print(f"  {scn.name:18s} {scn.run_count:4d} runs  "
                  f"{scn.description}")
    return 0


def cmd_run(args) -> int:
    bench = args.benchmark.upper()
    session = _telemetry_session(
        args, f"run-{bench}-{args.policy}", time_unit="cycles"
    )
    report = None
    if args.audit:
        from .audit import AuditReport

        report = AuditReport()
    summary = run_spec(
        _spec(args, bench, args.policy), telemetry=session, audit=report
    )
    rows = [
        ["cycles", summary.cycles],
        ["seconds", f"{summary.seconds:.6f}"],
        ["bus utilization", f"{summary.bus_utilization:.3f}"],
        ["mean read latency", f"{summary.mean_read_latency:.1f}"],
        ["zeros on bus", summary.total_zeros],
        ["scheme mix", str(summary.scheme_counts)],
        ["DRAM energy (uJ)", f"{summary.dram_total_j * 1e6:.2f}"],
        ["system energy (uJ)", f"{summary.system_total_j * 1e6:.2f}"],
    ]
    if session is not None:
        table = session.stats_table()
        modes = table.get("decision_modes", {})
        rows += [
            ["telemetry: bursts", table["bursts"]],
            ["telemetry: activates", table["act_count"]],
            ["telemetry: drain transitions", table["drain_transitions"]],
            ["telemetry: decision mix",
             ", ".join(f"{m}={n}" for m, n in sorted(modes.items())) or "-"],
        ]
    if args.baseline and args.policy != "dbi":
        base = run_spec(_spec(args, args.benchmark.upper(), "dbi"))
        rows += [
            ["vs DBI: time", f"{summary.cycles / base.cycles:.3f}"],
            ["vs DBI: zeros",
             f"{summary.total_zeros / max(1, base.total_zeros):.3f}"],
            ["vs DBI: DRAM energy",
             f"{summary.dram_total_j / base.dram_total_j:.3f}"],
        ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{summary.benchmark} on {summary.system} [{args.policy}]",
    ))
    if session is not None and args.trace_out:
        _write_telemetry(args.trace_out, session)
    if report is not None:
        print(report.render(), file=sys.stderr)
        if not report.clean:
            return 1
    return 0


def cmd_experiment(args) -> int:
    from .experiments import ALL_EXPERIMENTS

    try:
        fn = ALL_EXPERIMENTS[args.id]
    except KeyError:
        sys.exit(
            f"unknown experiment {args.id!r}; known: "
            + ", ".join(ALL_EXPERIMENTS)
        )
    kwargs = {}
    if args.scale is not None:
        kwargs["accesses_per_core"] = args.scale
    result = fn(**kwargs)
    print(result.format())
    if args.chart and result.rows and len(result.headers) >= 2:
        from .analysis.charts import bar_chart

        numeric_cols = [
            i for i in range(1, len(result.headers))
            if all(isinstance(r[i], (int, float)) for r in result.rows)
        ]
        if numeric_cols:
            col = numeric_cols[0]
            print()
            print(bar_chart(
                [str(r[0]) for r in result.rows],
                [float(r[col]) for r in result.rows],
                title=f"{result.headers[col]} (first numeric column)",
                reference=1.0,
            ))
    return 0


def cmd_campaign(args) -> int:
    from .experiments import ALL_EXPERIMENTS, EXPERIMENT_PLANS

    ids = args.ids or list(ALL_EXPERIMENTS)
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        sys.exit(
            f"unknown experiment(s) {', '.join(unknown)}; known: "
            + ", ".join(ALL_EXPERIMENTS)
        )
    kwargs = {}
    if args.scale is not None:
        kwargs["accesses_per_core"] = args.scale

    specs: list[RunSpec] = []
    for exp_id in ids:
        planner = EXPERIMENT_PLANS.get(exp_id)
        if planner is not None:
            specs.extend(planner(**kwargs))

    session = _telemetry_session(args, "campaign", time_unit="seconds")
    sink = ProgressLine()
    runner = CampaignRunner(
        jobs=args.jobs, sink=sink, strict=False, telemetry=session
    )
    # --audit rides on an environment opt-in so worker processes inherit
    # it and cache keys stay byte-identical (tests call main()
    # in-process, so the previous value is restored either way).
    import os

    from .audit import AUDIT_ENV

    previous_audit = os.environ.get(AUDIT_ENV)
    if args.audit:
        os.environ[AUDIT_ENV] = "1"
    try:
        runner.run(specs)
    finally:
        if args.audit:
            if previous_audit is None:
                os.environ.pop(AUDIT_ENV, None)
            else:
                os.environ[AUDIT_ENV] = previous_audit
    sink.close()
    c = runner.counters
    print(
        f"campaign: {c['specs']} runs over {len(ids)} experiment(s) — "
        f"{c['cache_hits']} cache hits, {c['executed']} executed "
        f"({c['wall_s']:.1f}s simulated work, {runner.jobs} job(s), "
        f"{c['retries']} retries, {c['failed']} failed)",
        file=sys.stderr,
    )
    if session is not None and args.trace_out:
        _write_telemetry(args.trace_out, session)

    if runner.failures:
        # A progress line scrolls; the verdict must not.  Every failing
        # spec is named by its content-addressed cache key so the run
        # can be retried or investigated precisely.
        print(
            f"campaign FAILED: {len(runner.failures)} run(s) died after "
            "retries:",
            file=sys.stderr,
        )
        from .campaign import cache

        for spec, error in runner.failures:
            print(
                f"  {cache.cache_key(spec, runner.fingerprint)}: {error}",
                file=sys.stderr,
            )
        return 1

    if not args.no_report:
        for exp_id in ids:
            print()
            print(ALL_EXPERIMENTS[exp_id](**kwargs).format())
    return 0


def cmd_suite(args) -> int:
    config = _system(args.system)
    specs = {
        (bench, policy): _spec(args, bench, policy)
        for bench in BENCHMARK_ORDER
        for policy in ("dbi", args.policy)
    }
    sink = ProgressLine()
    results = CampaignRunner(jobs=args.jobs, sink=sink).run(specs.values())
    sink.close()
    rows = []
    for bench in BENCHMARK_ORDER:
        base = results[specs[(bench, "dbi")]]
        s = results[specs[(bench, args.policy)]]
        rows.append([
            bench,
            base.bus_utilization,
            s.cycles / base.cycles,
            s.total_zeros / max(1, base.total_zeros),
            s.dram_total_j / base.dram_total_j if s.dram_energy else
            float("nan"),
        ])
    print(format_table(
        ["benchmark", "base_util", "time", "zeros", "dram_energy"],
        rows,
        title=f"suite on {config.name}: {args.policy} vs DBI",
    ))
    return 0


def cmd_trace(args) -> int:
    import dataclasses

    from .analysis.tracedump import (
        audit_dump,
        dump_transactions_csv,
        dump_transactions_jsonl,
    )
    from .coding.pipeline import precompute_line_zeros
    from .core.policies import make_factory, sent_schemes
    from .system.simulator import simulate
    from .workloads.benchmarks import build_trace

    config = _system(args.system)
    trace = build_trace(args.benchmark.upper(), config,
                        accesses_per_core=args.scale)
    zeros = precompute_line_zeros(
        trace.line_data, sent_schemes(args.policy),
        digest=trace.line_digest,
    )
    result = simulate(trace, config, make_factory(args.policy, zeros))
    # Each channel has its own data bus, so each gets its own dump and
    # its own audit (a merged file would interleave unrelated buses).
    stem, dot, suffix = args.output.rpartition(".")
    if not dot:
        stem, suffix = args.output, "csv"
    failed = False
    for ch, mc in enumerate(result.controllers):
        path = f"{stem}.ch{ch}.{suffix}"
        if suffix == "csv":
            count = dump_transactions_csv(path, mc.channel.transactions)
        else:
            count = dump_transactions_jsonl(path, mc.channel.transactions)
        report = audit_dump(path, config.timing)
        status = "clean" if report["clean"] else "VIOLATIONS"
        print(f"channel {ch}: {count} transactions -> {path} "
              f"(audit: {status}, schemes: {report['schemes']})")
        if not report["clean"]:
            failed = True
            for problem in report["violations"][:5]:
                print(f"  {problem}")
    del dataclasses  # imported for symmetry with other commands
    return 1 if failed else 0


def cmd_bench(args) -> int:
    from pathlib import Path

    from . import bench

    defs = bench.select(args.keyword, smoke_only=args.smoke)
    if not defs:
        known = ", ".join(sorted(bench.collect()))
        sys.exit(f"no benchmarks match {args.keyword!r}; known: {known}")

    if args.list:
        for d in defs:
            flag = "smoke" if d.smoke else "     "
            print(f"{d.name:28s} {flag}  {d.description}")
        return 0

    if args.profile:
        written = []
        for d in defs:
            print(f"profiling {d.name} [{args.profile}]", file=sys.stderr)
            try:
                written += bench.profile_benchmark(
                    d, args.profile, args.profile_dir
                )
            except bench.BenchError as exc:
                sys.exit(str(exc))
        for path in written:
            print(path)
        return 0

    def fmt(ns: float) -> str:
        if ns >= 1e6:
            return f"{ns / 1e6:9.2f} ms"
        if ns >= 1e3:
            return f"{ns / 1e3:9.2f} us"
        return f"{ns:9.0f} ns"

    results = []
    for d in defs:
        measurement = bench.measure(
            d.build(), repeats=args.repeats, warmup=args.warmup,
            inner_ops=d.inner_ops,
        )
        results.append(bench.result_entry(d, measurement))
        print(
            f"{d.name:28s} min {fmt(measurement.min_ns)}/op   "
            f"median {fmt(measurement.median_ns)}/op   "
            f"{measurement.ops_per_sec:12.0f} ops/s",
            file=sys.stderr,
        )
    doc = bench.build_report(
        results,
        protocol={"repeats": args.repeats, "warmup": args.warmup},
    )

    if args.update_baseline:
        target = Path(__file__).resolve().parents[2] / "benchmarks"
        out_path = bench.write_report(target / "baseline.json", doc)
    else:
        out_path = bench.write_report(args.out, doc)
    print(f"wrote {out_path}", file=sys.stderr)

    if args.compare:
        try:
            baseline = bench.load_report(args.compare)
        except bench.BenchError as exc:
            sys.exit(str(exc))
        comparison = bench.compare_reports(
            doc, baseline, max_regression_pct=args.max_regression
        )
        print(bench.format_comparison(comparison))
        if not comparison.ok:
            return 1
    return 0


def cmd_fuzz(args) -> int:
    from .audit.fuzz import combo_grid, run_corpus

    grid = len(combo_grid())
    dirty = 0
    commands = 0
    for i, res in enumerate(
        run_corpus(args.schedules, requests=args.requests,
                   base_seed=args.seed)
    ):
        commands += res.commands
        if not res.clean:
            dirty += 1
            print(f"VIOLATIONS in schedule {i} ({res.label}, "
                  f"seed {res.seed}):", file=sys.stderr)
            for v in res.violations[:10]:
                print(f"  {v}", file=sys.stderr)
    verdict = "clean" if not dirty else f"{dirty} DIRTY"
    print(
        f"fuzz: {args.schedules} schedules over {grid} combos "
        f"(timing x burst lengths x ranks x page policy), "
        f"{commands} commands audited, {verdict}",
        file=sys.stderr,
    )
    return 1 if dirty else 0


def cmd_telemetry(args) -> int:
    from .analysis.telemetry_view import render_metrics
    from .telemetry import load_metrics_jsonl

    try:
        payload = load_metrics_jsonl(args.path)
    except (OSError, ValueError) as exc:
        sys.exit(f"cannot read metrics dump {args.path!r}: {exc}")
    print(render_metrics(payload))
    return 0


def cmd_scenario(args) -> int:
    import json
    from pathlib import Path

    from .scenario import (
        ScenarioError,
        compile_scenario,
        discover,
        load_scenario,
        normalized,
        run_scenario,
        scenario_digest,
        write_rows,
    )

    if args.action == "list":
        paths = discover(args.dir)
        if not paths:
            where = args.dir or "scenarios/"
            print(f"no scenario files under {where}", file=sys.stderr)
            return 0
        for path in paths:
            try:
                scn = load_scenario(path)
            except ScenarioError as exc:
                print(f"{path.name:24s} INVALID: {exc}")
                continue
            print(f"{scn.name:18s} {scn.run_count:4d} runs  {path.name:24s} "
                  f"{scn.description}")
        return 0

    paths = [Path(p) for p in args.paths] or discover(args.dir)
    if not paths:
        sys.exit(f"scenario {args.action}: no scenario files given and "
                 "none found (see 'repro scenario list')")
    try:
        scenarios = [load_scenario(p) for p in paths]
    except (ScenarioError, OSError) as exc:
        sys.exit(str(exc))

    if args.action == "show":
        for scn in scenarios:
            print(json.dumps(normalized(scn), indent=2, sort_keys=True))
            print(f"# {scn.name}: digest {scenario_digest(scn)}, "
                  f"{scn.run_count} grid point(s)", file=sys.stderr)
        return 0

    if args.action == "compile" or args.dry_run:
        # One sorted-key JSON line per spec in compile order: the output
        # is byte-stable for a given scenario, so CI and users can diff
        # expansions across revisions.
        for scn in scenarios:
            for spec in compile_scenario(scn):
                print(json.dumps(
                    {"scenario": scn.name, "spec": spec.canonical()},
                    sort_keys=True,
                ))
        return 0

    if args.out and len(scenarios) > 1:
        sys.exit("scenario run: --out only applies to a single scenario "
                 "(each scenario writes its own JSONL)")

    # run: same environment-scoped --audit plumbing as cmd_campaign so
    # worker processes inherit the opt-in without touching cache keys.
    from .audit import AUDIT_ENV

    previous_audit = os.environ.get(AUDIT_ENV)
    if args.audit:
        os.environ[AUDIT_ENV] = "1"
    failed = False
    try:
        for scn in scenarios:
            sink = ProgressLine()
            result = run_scenario(scn, jobs=args.jobs, sink=sink)
            sink.close()
            out = Path(args.out) if args.out else (
                Path("results") / "scenarios" / f"{scn.name}.jsonl"
            )
            write_rows(out, result.rows)
            c = result.counters
            print(
                f"scenario {scn.name}: {c['specs']} runs — "
                f"{c['cache_hits']} cache hits, {c['executed']} executed "
                f"({c['wall_s']:.1f}s simulated work, {c['retries']} "
                f"retries, {c['failed']} failed) -> {out}",
                file=sys.stderr,
            )
            if not result.ok:
                failed = True
                from .campaign import cache

                print(f"scenario {scn.name} FAILED: "
                      f"{len(result.failures)} run(s) died after retries:",
                      file=sys.stderr)
                for spec, error in result.failures:
                    print(f"  {cache.cache_key(spec)}: {error}",
                          file=sys.stderr)
    finally:
        if args.audit:
            if previous_audit is None:
                os.environ.pop(AUDIT_ENV, None)
            else:
                os.environ[AUDIT_ENV] = previous_audit
    return 1 if failed else 0


# Where `repro submit`/`repro jobs` look for a service when --address
# is not given.  `repro serve` prints the actual bound address.
_ADDR_ENV = "REPRO_SERVE_ADDRESS"
_DEFAULT_ADDR = "127.0.0.1:7823"


def _serve_address(args) -> str:
    return args.address or os.environ.get(_ADDR_ENV) or _DEFAULT_ADDR


def _serve_client(args):
    from .serve.client import ServeClient

    return ServeClient(_serve_address(args))


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from .serve.server import ServeAPI
    from .serve.service import CampaignService, ServiceConfig

    from .serve.protocol import TOKEN_ENV

    config = ServiceConfig(
        store_root=args.store,
        shards=args.shards,
        queue_limit=args.queue_limit,
        quota=args.quota,
        retries=args.retries,
        worker_token=args.token or os.environ.get(TOKEN_ENV) or None,
        heartbeat_s=args.heartbeat,
        lease_timeout_s=args.lease_timeout,
        journal=not args.no_journal,
        metrics_interval_s=args.metrics_interval,
        metrics_out=args.metrics_out,
    )

    async def _amain() -> None:
        service = CampaignService(config)
        api = ServeAPI(service)
        await service.start()
        try:
            if args.socket:
                await api.listen_unix(args.socket)
                where = f"unix:{args.socket}"
            else:
                name = await api.listen_tcp(args.host, args.port)
                where = f"{name[0]}:{name[1]}"
            print(
                f"repro serve: listening on {where} "
                f"({service.shards} shard(s), store "
                f"{service.store.root})",
                file=sys.stderr, flush=True,
            )
            if service.resume_report:
                r = service.resume_report
                print(
                    f"repro serve: journal resumed {r['jobs']} job(s) — "
                    f"{r['requeued']} key(s) requeued, "
                    f"{r['settled']} settled from cache",
                    file=sys.stderr, flush=True,
                )
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except (NotImplementedError, RuntimeError):
                    pass
            await stop.wait()
            print("repro serve: shutting down", file=sys.stderr)
        finally:
            # Service first: detaching remote workers ends their
            # long-lived connections so api.close() cannot block on
            # open handlers (3.12+ waits for them).
            await service.stop()
            await api.close()

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_worker(args) -> int:
    import asyncio
    import signal

    from .serve.protocol import TOKEN_ENV
    from .serve.worker import WorkerAuthError, WorkerDaemon

    daemon = WorkerDaemon(
        args.connect,
        token=args.token or os.environ.get(TOKEN_ENV) or None,
        name=args.name,
        reconnect_delay_s=args.reconnect_delay,
        max_connects=1 if args.once else None,
    )

    async def _amain() -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, daemon.request_stop)
            except (NotImplementedError, RuntimeError):
                pass
        print(
            f"repro worker: {daemon.name} dialing {args.connect}",
            file=sys.stderr, flush=True,
        )
        await daemon.run()
        print(
            f"repro worker: {daemon.name} exiting "
            f"({daemon.completed} lease(s) completed, "
            f"{daemon.failed} failed)",
            file=sys.stderr, flush=True,
        )

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        pass
    except WorkerAuthError as exc:
        sys.exit(str(exc))
    return 0


def _resolve_scenario(ref: str):
    """A scenario by file path, or by name within the corpus."""
    from pathlib import Path

    from .scenario import ScenarioError, discover, load_scenario

    path = Path(ref)
    if path.exists():
        return load_scenario(path)
    for candidate in discover():
        try:
            scn = load_scenario(candidate)
        except ScenarioError:
            continue
        if scn.name == ref:
            return scn
    sys.exit(f"no scenario file {ref!r} and no corpus scenario named "
             f"{ref!r} (see 'repro scenario list')")


def cmd_submit(args) -> int:
    import json

    from .scenario import normalized
    from .serve.client import BackPressureError, ServeError

    scn = _resolve_scenario(args.scenario)
    client = _serve_client(args)
    try:
        job = client.submit_scenario(
            normalized(scn),
            namespace=args.namespace,
            priority=args.priority,
            label=args.label or scn.name,
        )
    except BackPressureError as exc:
        sys.exit(f"service queue is full, try again later ({exc})")
    except (ServeError, OSError) as exc:
        sys.exit(f"cannot submit to {_serve_address(args)}: {exc}")
    print(
        f"submitted {job['id']} ({job['label']}): {job['total']} run(s), "
        f"{job['counters']['cache_hits']} already cached",
        file=sys.stderr,
    )
    if not (args.wait or args.follow or args.results):
        print(job["id"])
        return 0

    if args.follow:
        for event in client.events(job["id"]):
            print(json.dumps(event, sort_keys=True))
    final = client.wait(job["id"])
    c = final["counters"]
    print(
        f"job {final['id']} {final['state']}: {final['done']}/"
        f"{final['total']} done — {c['cache_hits']} cache hits, "
        f"{c['executed']} executed, {c['retries']} retries, "
        f"{c['failed']} failed",
        file=sys.stderr,
    )
    if args.results:
        rows = client.results(final["id"])
        from pathlib import Path

        out = Path(args.results)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"wrote {len(rows)} result row(s) -> {out}", file=sys.stderr)
    return 0 if final["state"] == "done" else 1


def cmd_jobs(args) -> int:
    import json

    from .serve.client import ServeError

    client = _serve_client(args)
    try:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.job_id and args.cancel:
            job = client.cancel(args.job_id)
            print(f"job {job['id']} -> {job['state']}")
            return 0
        if args.job_id and args.events:
            for event in client.events(args.job_id, since=args.since):
                print(json.dumps(event, sort_keys=True))
            return 0
        if args.job_id:
            print(json.dumps(client.job(args.job_id), indent=2,
                             sort_keys=True))
            return 0
        jobs = client.jobs(namespace=args.namespace, state=args.state)
    except (ServeError, OSError) as exc:
        sys.exit(f"cannot reach service at {_serve_address(args)}: {exc}")
    if not jobs:
        print("no jobs", file=sys.stderr)
        return 0
    for job in jobs:
        c = job["counters"]
        print(
            f"{job['id']:6s} {job['state']:9s} {job['namespace']:12s} "
            f"{job['done']:4d}/{job['total']:<4d} "
            f"hits={c['cache_hits']} exec={c['executed']} "
            f"fail={c['failed']}  {job['label'] or ''}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MiL (More is Less) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Resolved at parser-build time, not import time, so policies
    # registered by the calling program (examples/custom_codec.py) are
    # accepted by --policy.
    policies = policy_names()

    sub.add_parser("list", help="show benchmarks/systems/policies")

    def add_telemetry_flags(p, default_stem):
        p.add_argument(
            "--telemetry", action="store_true",
            help="record metrics and an event trace for this command",
        )
        p.add_argument(
            "--trace-out", nargs="?", const=default_stem, default=None,
            metavar="PATH",
            help="write PATH.trace.json (Perfetto) and PATH.metrics.jsonl; "
                 f"implies --telemetry (default stem: {default_stem})",
        )

    p_run = sub.add_parser("run", help="simulate one benchmark")
    p_run.add_argument("benchmark")
    p_run.add_argument("--system", default="ddr4-server")
    p_run.add_argument("--policy", default="mil", choices=policies)
    p_run.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    p_run.add_argument("--baseline", action="store_true",
                       help="also run and compare against DBI")
    p_run.add_argument("--audit", action="store_true",
                       help="record the command log and re-derive every "
                            "DRAM protocol constraint post-run")
    add_telemetry_flags(p_run, "traces/run")

    p_exp = sub.add_parser("experiment", help="regenerate a table/figure")
    p_exp.add_argument("id")
    p_exp.add_argument("--scale", type=int, default=None)
    p_exp.add_argument("--chart", action="store_true",
                       help="render a unicode bar chart of the result")

    p_camp = sub.add_parser(
        "campaign",
        help="run a whole figure set as one parallel cached campaign",
    )
    p_camp.add_argument("ids", nargs="*", metavar="ID",
                        help="experiment ids (default: all)")
    p_camp.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or 1)")
    p_camp.add_argument("--scale", type=int, default=None)
    p_camp.add_argument("--no-report", action="store_true",
                        help="only warm the cache; skip printing figures")
    p_camp.add_argument("--audit", action="store_true",
                        help="audit every executed run's command log "
                             "(cache hits are not re-simulated)")
    add_telemetry_flags(p_camp, "traces/campaign")

    p_suite = sub.add_parser("suite", help="run all 11 benchmarks")
    p_suite.add_argument("--system", default="ddr4-server")
    p_suite.add_argument("--policy", default="mil", choices=policies)
    p_suite.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    p_suite.add_argument("--jobs", "-j", type=int, default=None,
                         help="worker processes (default: REPRO_JOBS or 1)")

    p_trace = sub.add_parser(
        "trace", help="dump and audit a run's bus-transaction log"
    )
    p_trace.add_argument("benchmark")
    p_trace.add_argument("output", help=".csv or .jsonl path")
    p_trace.add_argument("--system", default="ddr4-server")
    p_trace.add_argument("--policy", default="mil", choices=policies)
    p_trace.add_argument("--scale", type=int, default=DEFAULT_SCALE)

    p_tele = sub.add_parser(
        "telemetry", help="pretty-print a saved telemetry metrics dump"
    )
    p_tele.add_argument("path", help="a *.metrics.jsonl file")

    p_fuzz = sub.add_parser(
        "fuzz",
        help="fuzz the controller with seeded schedules and audit "
             "every command log (see docs/VALIDATION.md)",
    )
    p_fuzz.add_argument("--schedules", type=int, default=96,
                        help="schedules to run (default 96; the grid "
                             "has 48 combos)")
    p_fuzz.add_argument("--requests", type=int, default=24,
                        help="requests per schedule (default 24)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="corpus base seed (default 0)")

    p_scn = sub.add_parser(
        "scenario",
        help="compile/run declarative scenario files "
             "(see docs/SCENARIOS.md)",
    )
    p_scn.add_argument("action", choices=("list", "show", "compile", "run"),
                       help="list the corpus, show a file's canonical "
                            "form, compile the spec matrix, or run it")
    p_scn.add_argument("paths", nargs="*", metavar="PATH",
                       help="scenario file(s) for show/compile/run "
                            "(default: the whole corpus)")
    p_scn.add_argument("--dir", default=None, metavar="DIR",
                       help="corpus directory when no PATH is given "
                            "(default: scenarios/)")
    p_scn.add_argument("--jobs", "-j", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or 1)")
    p_scn.add_argument("--out", default=None, metavar="PATH",
                       help="JSONL output for 'run' with one scenario "
                            "(default: results/scenarios/<NAME>.jsonl)")
    p_scn.add_argument("--dry-run", action="store_true",
                       help="print the expanded spec matrix instead of "
                            "running")
    p_scn.add_argument("--audit", action="store_true",
                       help="audit every executed run's command log "
                            "(cache hits are not re-simulated)")

    p_bench = sub.add_parser(
        "bench", help="run the wall-clock benchmark suite"
    )
    p_bench.add_argument(
        "-k", dest="keyword", default=None, metavar="PATTERN",
        help="only benchmarks whose name contains PATTERN (or glob)",
    )
    p_bench.add_argument(
        "--smoke", action="store_true",
        help="only the quick smoke subset (what CI runs)",
    )
    p_bench.add_argument(
        "--list", action="store_true",
        help="list matching benchmarks instead of running them",
    )
    p_bench.add_argument(
        "--out", default=".", metavar="PATH",
        help="report file, or a directory to write BENCH_<ts>.json into "
             "(default: current directory)",
    )
    p_bench.add_argument(
        "--repeats", type=int, default=_BENCH_REPEATS,
        help=f"timed samples per benchmark (default {_BENCH_REPEATS})",
    )
    p_bench.add_argument(
        "--warmup", type=int, default=_BENCH_WARMUP,
        help=f"warmup rounds per benchmark (default {_BENCH_WARMUP})",
    )
    p_bench.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="compare against a baseline report; exit non-zero on "
             "regressions",
    )
    p_bench.add_argument(
        "--max-regression", type=float, default=20.0, metavar="PCT",
        help="allowed slowdown vs baseline, percent (default 20)",
    )
    p_bench.add_argument(
        "--update-baseline", action="store_true",
        help="write the report to benchmarks/baseline.json instead",
    )
    p_bench.add_argument(
        "--profile", default=None, choices=("cprofile", "pyinstrument"),
        help="dump per-benchmark profiles instead of timing",
    )
    p_bench.add_argument(
        "--profile-dir", default="profiles", metavar="DIR",
        help="directory for profile output (default: profiles/)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived campaign service (docs/SERVICE.md)",
    )
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="listen on a Unix socket instead of TCP")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7823,
                         help="TCP port (0 = pick a free one)")
    p_serve.add_argument("--shards", type=int, default=None,
                         help="worker processes (default: "
                              "REPRO_SERVE_SHARDS or 2; 0 = inline)")
    p_serve.add_argument("--store", default=".cache/serve", metavar="DIR",
                         help="result store root (default: .cache/serve)")
    p_serve.add_argument("--queue-limit", type=int, default=4096,
                         help="max outstanding work units before 429s")
    p_serve.add_argument("--quota", type=int, default=4096,
                         help="cached results kept per namespace")
    p_serve.add_argument("--retries", type=int, default=2,
                         help="retry budget per work unit (default 2)")
    p_serve.add_argument("--token", default=None, metavar="TOKEN",
                         help="shared token remote workers must present "
                              "(default: $REPRO_SERVE_TOKEN; unset = "
                              "accept any)")
    p_serve.add_argument("--heartbeat", type=float, default=10.0,
                         metavar="SECONDS",
                         help="remote-worker ping interval; a worker "
                              "silent for 3 intervals is detached "
                              "(default 10)")
    p_serve.add_argument("--lease-timeout", type=float, default=600.0,
                         metavar="SECONDS",
                         help="hard cap on one remote lease before the "
                              "worker is presumed wedged (default 600)")
    p_serve.add_argument("--no-journal", action="store_true",
                         help="disable the durable job journal "
                              "(no restart-resume)")
    p_serve.add_argument("--metrics-interval", type=float, default=0.0,
                         metavar="SECONDS",
                         help="write a /v1/metrics sample to JSONL every "
                              "SECONDS (0 = off)")
    p_serve.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="rolling metrics JSONL path (default: "
                              "<store>/metrics.jsonl)")

    p_worker = sub.add_parser(
        "worker",
        help="contribute one remote execution slot to a service",
    )
    p_worker.add_argument("--connect", required=True, metavar="ADDR",
                          help="service address, unix:/path or host:port")
    p_worker.add_argument("--token", default=None, metavar="TOKEN",
                          help="shared token (default: $REPRO_SERVE_TOKEN)")
    p_worker.add_argument("--name", default=None,
                          help="worker name (default: <host>-<pid>)")
    p_worker.add_argument("--reconnect-delay", type=float, default=2.0,
                          metavar="SECONDS",
                          help="redial pause after a lost connection "
                               "(default 2)")
    p_worker.add_argument("--once", action="store_true",
                          help="serve a single connection, then exit "
                               "(no redial loop)")

    def add_address_flag(p):
        p.add_argument("--address", default=None, metavar="ADDR",
                       help="service address, unix:/path or host:port "
                            f"(default: {_ADDR_ENV} or {_DEFAULT_ADDR})")

    p_submit = sub.add_parser(
        "submit", help="submit a scenario to a running service"
    )
    p_submit.add_argument("scenario",
                          help="scenario file path or corpus name")
    add_address_flag(p_submit)
    p_submit.add_argument("--namespace", default="default",
                          help="tenant namespace for the result store")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="higher runs first (default 0)")
    p_submit.add_argument("--label", default=None,
                          help="job label (default: the scenario name)")
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the job is terminal")
    p_submit.add_argument("--results", default=None, metavar="PATH",
                          help="write completed rows as JSONL "
                               "(implies --wait)")
    p_submit.add_argument("--follow", action="store_true",
                          help="stream job events to stdout "
                               "(implies --wait)")

    p_jobs = sub.add_parser(
        "jobs", help="inspect a running service's jobs"
    )
    p_jobs.add_argument("job_id", nargs="?", default=None,
                        help="show one job instead of listing")
    add_address_flag(p_jobs)
    p_jobs.add_argument("--cancel", action="store_true",
                        help="cancel the given job")
    p_jobs.add_argument("--events", action="store_true",
                        help="stream the given job's events")
    p_jobs.add_argument("--since", type=int, default=-1,
                        help="with --events: replay after this seq")
    p_jobs.add_argument("--namespace", default=None,
                        help="filter the listing by namespace")
    p_jobs.add_argument("--state", default=None,
                        choices=("queued", "running", "done", "failed",
                                 "cancelled"),
                        help="filter the listing by state")
    p_jobs.add_argument("--stats", action="store_true",
                        help="print service stats instead")

    args = parser.parse_args(argv)
    handler = {
        "list": cmd_list,
        "run": cmd_run,
        "experiment": cmd_experiment,
        "campaign": cmd_campaign,
        "suite": cmd_suite,
        "trace": cmd_trace,
        "telemetry": cmd_telemetry,
        "fuzz": cmd_fuzz,
        "scenario": cmd_scenario,
        "bench": cmd_bench,
        "serve": cmd_serve,
        "worker": cmd_worker,
        "submit": cmd_submit,
        "jobs": cmd_jobs,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
