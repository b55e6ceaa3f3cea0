"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is imported from ``src/`` of the checkout this
file sits in.  Every metric is printed as ``metric <name> <value>
<unit>``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones from a separate traced run.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from pathlib import Path  # noqa: E402

from common import (  # noqa: E402
    ROOT, SRC, WORK, Tally, clock, load_pins, median, peak_rss_mb,
    scratch_dir,
)

RUN_PY = Path(__file__).resolve()

# Set-up is repeated in fresh interpreters and the median reported,
# because one process can import the program only once.
SETUP_SAMPLES = 5
WORKLOADS = {
    "gups-mil-cold": "gups",
    "fig16-slice": "fig16",
    "serve-closed-loop": "serveloop",
}


def seed_arg(text: str) -> int:
    """Spec seeds seed NumPy generators, which need a value >= 0."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=seed_arg, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up the workload, print the set-up seconds, exit.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_program() -> None:
    """Refuse to run without the program's source next to the bench."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}; run from a "
                 "full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"perfbench: no BENCHMARK.json at {ROOT}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)


def setup_samples(args, first: float) -> list[float]:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    os.chdir(ROOT)

    import importlib

    from spans import Tracer

    module = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_probe:
        with scratch_dir("setup-") as scratch, \
                module.session(args.seed, scratch):
            setup_s = time.perf_counter() - T0
        print(setup_s)
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = Tally()
    pins = load_pins(args.workload)
    tracer = Tracer(clock) if args.trace else None
    with scratch_dir(f"{args.workload}-") as scratch:
        with module.session(args.seed, scratch) as state:
            setup_s = time.perf_counter() - T0
            metrics, report = module.measure(
                state, args.seconds, tally, pins, tracer)
        peak_mb = peak_rss_mb()
        verify = getattr(module, "verify", None)
        if verify is not None:
            extra, lines = verify(state, tally, tracer)
            metrics.update(extra)
            report += lines
    metrics["failed_ratio"] = tally.ratio
    if tracer is None:
        samples = setup_samples(args, setup_s)
        metrics["setup_s"] = median(samples)
        metrics["peak_rss_mb"] = peak_mb
        report.append("setup samples " + " ".join(f"{s:.4f}" for s in samples))
        wanted = declared["end_to_end"]
    else:
        tracer.dump(WORK / f"spans-{args.workload}-s{args.seed}.json")
        for entry in declared["per_layer"]:
            if entry["name"].startswith(module.BYPASSED):
                metrics.setdefault(entry["name"], 0)
        wanted = declared["per_layer"]

    for line in report:
        print(line)
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    if tracer is None:  # a per-layer metric, printed for both modes
        print(f"metric failed_ratio {metrics['failed_ratio']} ratio")
    result = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        result[name] = {"value": metrics[name], "unit": unit}
        print(f"metric {name} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
