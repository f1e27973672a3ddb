"""Command-line interface: run experiments and demos without writing code.

Usage::

    python -m repro list                      # available experiments
    python -m repro run table1                # regenerate one artifact
    python -m repro run fig10 --dataset tpch
    python -m repro run fig11d --quick        # reduced-scale sweep
    python -m repro quickstart                # the quickstart demo
    python -m repro quickstart --trace t.json --metrics m.prom
    python -m repro trace summarize t.json    # per-phase breakdown

Each ``run`` prints the paper-style table and writes JSON next to the
benchmarks (``benchmarks/results/``).  All user-facing output goes
through a ``logging``-based reporter: ``--quiet`` silences it and
``--log-level`` additionally streams package diagnostics to stderr,
while the default level keeps stdout byte-identical to the historical
``print`` output.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Any, Callable, Optional

from .bench import (
    bench_parallel_speedup,
    fig6_assignment_tradeoffs,
    fig10_partition_metrics,
    fig11_throughput_vs_interval,
    fig11d_skew_sweep,
    fig12_elasticity,
    fig13_latency_distribution,
    fig14a_post_sort_throughput,
    fig14b_partition_overhead,
    format_table,
    joint_imbalance_score,
    partitioner_shootout,
    save_results,
    table1_dataset_stats,
)
from .engine.engine import EngineConfig
from .engine.executors import EXECUTOR_NAMES, ExecutorKind
from .engine.sharding.router import ROUTER_NAMES
from .obs import ObservabilityConfig, format_trace_summary, summarize_trace
from .partitioners.registry import PARTITIONER_NAMES

__all__ = ["main", "EXPERIMENTS"]

log = logging.getLogger(__name__)

#: logger carrying user-facing CLI output (bare messages to stdout)
_REPORTER = "repro.cli.report"


def _configure_logging(args: argparse.Namespace) -> logging.Logger:
    """(Re)build the CLI logging pipeline for one invocation.

    The reporter logger writes bare messages to stdout — byte-identical
    to the former ``print`` calls at the default level — so library
    consumers can silence or redirect CLI output like any other logger.
    ``--quiet`` raises the reporter threshold; ``--log-level`` attaches
    a stderr diagnostics handler to the package logger.  Handlers are
    rebuilt on every call so repeated ``main()`` invocations (e.g. the
    test suite) never stack duplicates.
    """
    reporter = logging.getLogger(_REPORTER)
    for handler in list(reporter.handlers):
        reporter.removeHandler(handler)
    out = logging.StreamHandler(sys.stdout)
    out.setFormatter(logging.Formatter("%(message)s"))
    reporter.addHandler(out)
    reporter.propagate = False
    quiet = getattr(args, "quiet", False)
    reporter.setLevel(logging.ERROR if quiet else logging.INFO)

    package = logging.getLogger("repro")
    for handler in list(package.handlers):
        if getattr(handler, "_repro_cli", False):
            package.removeHandler(handler)
    level_name = getattr(args, "log_level", None)
    if level_name:
        diag = logging.StreamHandler(sys.stderr)
        diag.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        diag._repro_cli = True  # type: ignore[attr-defined]
        package.addHandler(diag)
        package.setLevel(getattr(logging, level_name.upper()))
    return reporter


def _obs_config(args: argparse.Namespace) -> Optional[ObservabilityConfig]:
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    jsonl = getattr(args, "jsonl", None)
    if not (trace or metrics or jsonl):
        return None
    return ObservabilityConfig(
        trace_path=trace, metrics_path=metrics, jsonl_path=jsonl
    )


def _run_table1(args: argparse.Namespace) -> tuple[str, Any]:
    rows = table1_dataset_stats()
    return format_table(rows, title="Table 1: dataset properties"), rows


def _run_fig6(args: argparse.Namespace) -> tuple[str, Any]:
    rows = fig6_assignment_tradeoffs()
    return format_table(rows, title="Figure 6: assignment trade-offs"), rows


def _run_fig10(args: argparse.Namespace) -> tuple[str, Any]:
    rows = fig10_partition_metrics(args.dataset)
    return (
        format_table(rows, title=f"Figure 10 ({args.dataset}): partitioning metrics"),
        rows,
    )


def _run_fig11(args: argparse.Namespace) -> tuple[str, Any]:
    kwargs: dict[str, Any] = {"cost_scale": 2.0}
    if args.quick:
        kwargs.update(
            intervals=(1.0,), num_batches=3, num_keys=5_000, tolerance=0.2
        )
    rows = fig11_throughput_vs_interval(**kwargs)
    return format_table(rows, title="Figure 11a-c: throughput vs batch interval"), rows


def _run_fig11d(args: argparse.Namespace) -> tuple[str, Any]:
    kwargs: dict[str, Any] = {"cost_scale": 2.0}
    if args.quick:
        kwargs.update(
            exponents=(0.2, 1.0, 1.8),
            batch_interval=1.0,
            num_batches=3,
            num_keys=5_000,
            tolerance=0.2,
        )
    rows = fig11d_skew_sweep(**kwargs)
    return format_table(rows, title="Figure 11d: throughput vs Zipf exponent"), rows


def _run_fig12(args: argparse.Namespace) -> tuple[str, Any]:
    result = fig12_elasticity(direction=args.direction)
    text = format_table(
        result["series"], title=f"Figure 12 (scale-{args.direction}): task tracking"
    )
    return text, result


def _run_fig13(args: argparse.Namespace) -> tuple[str, Any]:
    out = fig13_latency_distribution()
    rows = [
        {
            "Technique": name,
            "MeanReduceTime": d["mean_reduce_time"],
            "MeanSpread": d["mean_spread"],
            "LatencyP95": d["latency_p95"],
        }
        for name, d in out["techniques"].items()
    ]
    return format_table(rows, title="Figure 13: reduce-time distribution"), rows


def _run_fig14a(args: argparse.Namespace) -> tuple[str, Any]:
    rows = fig14a_post_sort_throughput(cost_scale=2.0)
    return format_table(rows, title="Figure 14a: post-sort ablation"), rows


def _run_fig14b(args: argparse.Namespace) -> tuple[str, Any]:
    rows = fig14b_partition_overhead()
    return format_table(rows, title="Figure 14b: partitioning overhead"), rows


def _run_speedup(args: argparse.Namespace) -> tuple[str, Any]:
    kwargs: dict[str, Any] = {"workers": args.workers}
    if args.quick:
        kwargs.update(rate=2_000.0, num_batches=3, num_keys=1_000)
    rows = bench_parallel_speedup(**kwargs)
    return (
        format_table(rows, title="Serial vs parallel backend wall-clock"),
        rows,
    )


def _run_shootout(args: argparse.Namespace) -> tuple[str, Any]:
    kwargs: dict[str, Any] = {"cost_scale": 2.0}
    if args.quick:
        kwargs.update(
            rate=3_000.0,
            num_keys=1_500,
            num_batches=4,
            runtime_batches=4,
        )
    payload = partitioner_shootout(**kwargs)
    for row in payload["quality"]:
        row["JointScore"] = joint_imbalance_score(row)
    text = format_table(
        payload["quality"],
        columns=["Scenario", "Skew", "Technique", "BSI", "BCI", "KSR", "MPI", "JointScore"],
        title="Partitioner shoot-out: partition quality",
    )
    text += "\n\n" + format_table(
        payload["runtime"],
        columns=["Scenario", "Technique", "LatencyMean", "LatencyP95", "Throughput", "Stable"],
        title="Partitioner shoot-out: runtime at fixed offered rate",
    )
    return text, payload


def _run_sharded(args: argparse.Namespace) -> tuple[str, Any]:
    """Sharded-topology demo: a multi-tenant union over N engines.

    Exercises the v1 ``repro.run(..., topology=Sharded(...))`` path end
    to end: routes four SynD tenants across ``--shards`` engines with
    ``--router``, then prints the per-shard spread and proves on the
    spot that the merged answers match a single-engine run of the same
    union (the differential contract, demo-sized).
    """
    import pickle

    import repro as api
    from repro.queries import wordcount_query
    from repro.workloads import MultiTenantSource, TenantStream, synd_source

    shards = getattr(args, "shards", 2)
    router = getattr(args, "router", "hash")
    quick = getattr(args, "quick", False)
    num_batches = 4 if quick else 8
    rate = 600.0 if quick else 2_000.0

    def union() -> MultiTenantSource:
        return MultiTenantSource(
            [
                TenantStream(
                    name,
                    synd_source(
                        exponent, num_keys=300, rate=rate * share, seed=seed
                    ),
                )
                for name, exponent, share, seed in (
                    ("alpha", 1.4, 0.30, 31),
                    ("bravo", 0.8, 0.25, 32),
                    ("charlie", 1.6, 0.25, 33),
                    ("delta", 1.1, 0.20, 34),
                )
            ]
        )

    engine = api.EngineConfig(
        batch_interval=0.5,
        num_blocks=4,
        num_reducers=4,
        observability=_obs_config(args),
    )
    sharded = api.run(
        union(),
        wordcount_query(window_length=1.0),
        num_batches=num_batches,
        topology=api.Sharded(shards=shards, router=router),
        engine=engine,
    )
    single = api.run(
        union(),
        wordcount_query(window_length=1.0),
        num_batches=num_batches,
        engine=api.EngineConfig(
            batch_interval=0.5, num_blocks=4, num_reducers=4
        ),
    )
    from repro.engine.sharding import canonical_order

    identical = all(
        pickle.dumps(mine) == pickle.dumps(canonical_order(theirs))
        for mine, theirs in zip(
            sharded.window_answers, single.window_answers
        )
    )
    rows = [
        {
            "Shard": i,
            "Tenants": ", ".join(
                sorted(
                    t
                    for t, owners in sharded.tenant_shards.items()
                    if i in owners
                )
            ),
            "Tuples": r.stats.total_tuples,
            "Throughput": r.stats.throughput(),
            "MeanLoad": r.stats.mean_load(),
            "Stable": r.stable,
        }
        for i, r in enumerate(sharded.shard_results)
    ]
    text = format_table(
        rows,
        columns=["Shard", "Tenants", "Tuples", "Throughput", "MeanLoad", "Stable"],
        title=(
            f"Sharded topology: {shards} engine(s) behind the "
            f"{router} router"
        ),
    )
    text += (
        f"\n\naggregate throughput: {sharded.throughput():,.0f} tuples/s"
        f"\nmerged answers identical to a single-engine run: {identical}"
    )
    payload = {
        "shards": shards,
        "router": router,
        "rows": rows,
        "aggregate_throughput": sharded.throughput(),
        "answers_identical": identical,
    }
    return text, payload


def _quickstart_config(args: argparse.Namespace) -> EngineConfig:
    """The quickstart engine config; raises ``ValueError`` on bad flags.

    Flags absent from the invoking subparser fall back to the
    ``quickstart`` defaults, so ``repro run quickstart --trace out.json``
    exercises the same engine path with observability attached.
    """
    return EngineConfig(
        batch_interval=1.0,
        num_blocks=8,
        num_reducers=8,
        executor=getattr(args, "backend", ExecutorKind.SERIAL),
        executor_workers=getattr(args, "workers", None),
        observability=_obs_config(args),
    )


def _run_quickstart(
    args: argparse.Namespace, config: EngineConfig | None = None
) -> tuple[str, Any]:
    """The quickstart workload, shared by ``quickstart`` and ``run``."""
    # Local import: keeps `repro list` fast and the engine optional.
    from repro import MicroBatchEngine, make_partitioner
    from repro.queries import select_top_k, wordcount_query
    from repro.workloads import tweets_source

    engine = MicroBatchEngine(
        make_partitioner(getattr(args, "partitioner", "prompt")),
        wordcount_query(window_length=10.0),
        config or _quickstart_config(args),
    )
    result = engine.run(tweets_source(rate=5_000.0, seed=42), num_batches=12)
    lines = [f"backend: {result.backend_name}"]
    if result.backend_name == "parallel":
        lines.append(
            "fault tolerance: "
            f"{result.executor_task_attempts} attempts, "
            f"{result.executor_task_retries} retries, "
            f"{result.executor_pool_resurrections} pool resurrections, "
            f"{result.executor_fallbacks} serial fallbacks"
        )
        attempts = result.executor_task_attempts or 1
        lines.append(
            "payload: "
            f"{result.executor_payload_bytes:,} task bytes "
            f"({result.executor_payload_bytes / attempts:,.0f}/task), "
            f"{result.executor_context_installs} context install(s) "
            f"({result.executor_context_bytes:,} bytes)"
        )
    lines.append(f"throughput: {result.stats.throughput():,.0f} tuples/s")
    lines.append(f"mean latency: {result.stats.mean_latency():.3f}s")
    top = select_top_k(result.final_window_answer(), 5)
    for word, count in top:
        lines.append(f"  {word:>8}  {count}")
    obs = result.observability
    if obs is not None and obs.config is not None and obs.enabled:
        if obs.config.trace_path:
            lines.append(f"trace written to {obs.config.trace_path}")
        if obs.config.metrics_path:
            lines.append(f"metrics written to {obs.config.metrics_path}")
        if obs.config.jsonl_path:
            lines.append(f"jsonl written to {obs.config.jsonl_path}")
    payload = {
        "backend": result.backend_name,
        "throughput": result.stats.throughput(),
        "mean_latency": result.stats.mean_latency(),
        "top_words": [[word, count] for word, count in top],
    }
    return "\n".join(lines), payload


EXPERIMENTS: dict[str, tuple[str, Callable[[argparse.Namespace], tuple[str, Any]]]] = {
    "table1": ("Table 1 — dataset properties", _run_table1),
    "fig6": ("Figure 6 — B-BPFI assignment trade-offs", _run_fig6),
    "fig10": ("Figure 10 — BSI/BCI partitioning metrics", _run_fig10),
    "fig11": ("Figure 11a-c — throughput vs batch interval", _run_fig11),
    "fig11d": ("Figure 11d — throughput vs Zipf exponent", _run_fig11d),
    "fig12": ("Figure 12 — resource elasticity", _run_fig12),
    "fig13": ("Figure 13 — latency distribution", _run_fig13),
    "fig14a": ("Figure 14a — post-sort throughput", _run_fig14a),
    "fig14b": ("Figure 14b — partitioning overhead", _run_fig14b),
    "speedup": ("Serial vs parallel execution backend wall-clock", _run_speedup),
    "shootout": ("Partitioner shoot-out — all techniques head-to-head", _run_shootout),
    "quickstart": ("Quickstart demo — engine run (supports --trace/--metrics)", _run_quickstart),
    "sharded": ("Sharded topology demo — N engines behind a shard router", _run_sharded),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Prompt (SIGMOD 2020) reproduction experiment runner",
    )

    log_flags = argparse.ArgumentParser(add_help=False)
    log_flags.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        help="stream repro.* diagnostics to stderr at this level",
    )
    log_flags.add_argument(
        "--quiet", action="store_true", help="suppress normal stdout reporting"
    )

    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON of the run (chrome://tracing)",
    )
    obs_flags.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a Prometheus-text metrics snapshot of the run",
    )
    obs_flags.add_argument(
        "--jsonl",
        metavar="PATH",
        default=None,
        help="write a combined span+metric JSONL log of the run",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser(
        "run",
        help="run one experiment and print its table",
        parents=[log_flags, obs_flags],
    )
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument(
        "--dataset",
        default="tweets",
        choices=["tweets", "tpch", "synd", "debs", "gcm"],
        help="dataset for fig10",
    )
    run.add_argument(
        "--direction", default="out", choices=["out", "in"], help="ramp for fig12"
    )
    run.add_argument(
        "--quick", action="store_true", help="reduced-scale run for fig11/fig11d"
    )
    run.add_argument(
        "--no-save", action="store_true", help="skip writing benchmarks/results JSON"
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the speedup bench (default: auto)",
    )
    run.add_argument(
        "--shards",
        type=int,
        default=2,
        help="engine count for the sharded demo (default: 2)",
    )
    run.add_argument(
        "--router",
        default="hash",
        choices=list(ROUTER_NAMES),
        help="shard router strategy for the sharded demo",
    )

    quick = sub.add_parser(
        "quickstart",
        help="run the quickstart demo",
        parents=[log_flags, obs_flags],
    )
    quick.add_argument(
        "--backend",
        default=ExecutorKind.SERIAL.value,
        choices=list(EXECUTOR_NAMES),
        help="execution backend for map/reduce tasks",
    )
    quick.add_argument(
        "--partitioner",
        default="prompt",
        choices=list(PARTITIONER_NAMES),
        help="partitioning technique for the demo run (default: prompt)",
    )
    quick.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the parallel backend (default: auto)",
    )

    trace = sub.add_parser("trace", help="inspect a written trace file")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="print a per-phase time breakdown and the slowest tasks",
        parents=[log_flags],
    )
    summarize.add_argument("path", help="Chrome trace-event JSON written by --trace")
    summarize.add_argument(
        "--top",
        type=int,
        default=5,
        help="how many slowest tasks to list (default: 5)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    reporter = _configure_logging(args)
    if args.command == "list":
        for name, (description, _) in sorted(EXPERIMENTS.items()):
            reporter.info("%-8s  %s", name, description)
        return 0
    if args.command == "trace":
        summary = summarize_trace(args.path, top_k=args.top)
        reporter.info("%s", format_trace_summary(summary))
        return 0
    if args.command == "quickstart":
        try:
            config = _quickstart_config(args)
        except ValueError as exc:
            parser.error(str(exc))
        text, _ = _run_quickstart(args, config)
        reporter.info("%s", text)
        return 0

    _, runner = EXPERIMENTS[args.experiment]
    text, payload = runner(args)
    reporter.info("%s", text)
    if not args.no_save:
        path = save_results(f"cli_{args.experiment}", payload)
        reporter.info("\nresults saved to %s", path)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
