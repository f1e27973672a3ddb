"""The end-to-end benchmark: one command, every metric by name.

Two ways in:

``run.py [--seed 7] [--workload NAME] [--out FILE]``
    Runs each workload in a fresh interpreter, untraced then traced,
    prints one table per workload and (with ``--out``) writes a result
    file carrying the host block.  This is the form people run.

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, one mode, in this interpreter; the last line of
    standard output is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics``.  ``--trace 0`` measures the end-to-end
    metrics through ``repro.run`` with no instrumentation; ``--trace 1``
    drives the layers from outside under spans and reports the
    per-layer metrics.  This is the form the full run (and any harness)
    calls.

Load is a closed loop with one client: the engine pulls batch k+1 from
the source when it is done with batch k.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional, TypeVar

import host

RESULTS_DIR = Path(__file__).resolve().parent / "results"

T = TypeVar("T")

#: import probes per untraced invocation (their median enters ``setup_s``)
IMPORT_PROBES = 5
MIN_REPEATS = 3

#: the line before the JSON object: what a result file keeps besides it
DETAILS_PREFIX = "details: "
PAR_NOTE = "dispatch overhead, not scaling (effective_cores < 1.5)"


def repeat_for(seconds: float, once: Callable[[], T], minimum: int) -> list[T]:
    """Call ``once`` until ``seconds`` have passed, at least ``minimum`` times."""
    started = time.perf_counter()
    out: list[T] = []
    while len(out) < minimum or time.perf_counter() - started < seconds:
        out.append(once())
    return out


def current_rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def run_single(args: argparse.Namespace) -> int:
    """One workload, one mode; prints the metric lines and the JSON object."""
    import metrics
    from measure import SpanLog, traced_repeat, untraced_repeat
    from reference import Checker
    from source import MaterialisedSource
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    source = MaterialisedSource(*workload.make_input(args.seed, args.scale))
    generate_s = time.perf_counter() - started
    checker = Checker(workload, source)
    samples: dict[str, list[float]] = {}
    untraced = partial(untraced_repeat, workload, source, checker, args.seed)

    if not args.trace:
        import_s = [host.import_seconds() for _ in range(IMPORT_PROBES)]
        repeats = repeat_for(args.seconds, untraced, MIN_REPEATS)
        values, samples = metrics.end_to_end(repeats, import_s)
        units = metrics.END_TO_END
    else:
        # The per-layer ledger needs an untraced figure to measure its
        # residual against, so a traced invocation spends part of its
        # time on plain runs; the parallel workload also runs its own
        # input through the serial engine for the dispatch-cost ratio.
        baseline_share = 0.15 if workload.parallel_workers else 0.0
        rss_after_setup = current_rss_mb()
        plain = repeat_for(0.35 * args.seconds, untraced, 2)
        rss_delta = metrics.peak_rss_mb() - rss_after_setup
        baseline = (
            repeat_for(baseline_share * args.seconds, partial(untraced, serial=True), 1)
            if workload.parallel_workers
            else None
        )
        log = SpanLog()
        traced = repeat_for(
            (0.65 - baseline_share) * args.seconds,
            lambda: traced_repeat(workload, source, checker, args.seed, log),
            2,
        )
        log.dump(
            RESULTS_DIR / f"trace-{workload.name}.json",
            workload=workload.name,
            seed=args.seed,
            scale=args.scale,
        )
        values = metrics.per_layer(
            plain,
            traced,
            log,
            serial_baseline=baseline,
            peak_rss_delta_mb=rss_delta,
            generate_s=generate_s,
            reference_s=checker.reference_s,
        )
        units = metrics.PER_LAYER

    for name, value in values.items():
        print(f"{workload.name:18} {name:48} {value:16.6f} {units[name]}")
    print(
        f"{workload.name:18} ops_attempted={checker.attempted} "
        f"ops_failed={checker.failed} answers_sha256={checker.sha256}"
    )
    details = {
        "answers_sha256": checker.sha256,
        "samples": samples,
        "spread": {k: metrics.spread(v) for k, v in samples.items()},
    }
    print(f"{DETAILS_PREFIX}{json.dumps(details)}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if checker.failed == 0 else 1


def run_child(args: argparse.Namespace, workload: str, trace: int) -> dict[str, Any]:
    """Run one workload/mode in a fresh interpreter; return its result."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", str(args.scale),
        "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result.update(json.loads(lines[-2].removeprefix(DETAILS_PREFIX)))
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        raise SystemExit(
            f"{workload} --trace {trace} printed no result "
            f"(exit code {done.returncode})"
        )
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    return result


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    block = host.host_block()
    print(f"host: {json.dumps(block)}")
    report: dict[str, Any] = {
        "schema": 1,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "host": block,
        "workloads": {},
    }
    failed = 0
    for name in names:
        plain = run_child(args, name, 0)
        traced = run_child(args, name, 1)
        entry = {
            "answers_sha256": plain["answers_sha256"],
            "ops_attempted": plain["attempted"] + traced["attempted"],
            "ops_failed": plain["failed"] + traced["failed"],
            "end_to_end": plain["metrics"],
            "samples": plain["samples"],
            "spread": plain["spread"],
            "per_layer": traced["metrics"],
        }
        if plain["answers_sha256"] != traced["answers_sha256"]:
            entry["ops_failed"] += 1
        if name.endswith("_par") and block["effective_cores"] < 1.5:
            entry["note"] = PAR_NOTE
            print(f"{name:18} note: {PAR_NOTE}")
        failed += entry["ops_failed"]
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    print(f"ops_failed={failed}")
    return 0 if failed == 0 else 1


def default_seconds() -> float:
    with (host.REPO_ROOT / "BENCHMARK.json").open() as spec:
        return float(json.load(spec)["run_seconds"])


def main(argv: Optional[list[str]] = None) -> int:
    if not (host.SRC_DIR / "repro").is_dir():
        print(
            f"{host.REPO_ROOT} has no src/repro: the benchmark measures the "
            "repo it is checked out in and cannot run without it",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(host.SRC_DIR))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7, help="input seed")
    parser.add_argument(
        "--seconds",
        type=float,
        help="measuring time per invocation (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplies every workload's tuple rate (smoke runs use 0.02)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="run one mode in this interpreter and end with the JSON object",
    )
    parser.add_argument("--out", help="full run: write the result file here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()

    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_single(args)
    return run_all(args, [args.workload] if args.workload else list(WORKLOADS))


if __name__ == "__main__":
    sys.exit(main())
