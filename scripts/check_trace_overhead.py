#!/usr/bin/env python3
"""CI guard: observability artifacts are valid and tracing stays cheap.

Runs the quickstart workload twice — untraced, then traced with every
export enabled — and checks:

1. the Chrome trace-event JSON loads and contains the expected nested
   span names (run -> batch -> task phases);
2. the Prometheus text snapshot parses and carries the core series;
3. traced wall-clock stays within ``--max-ratio`` (default 1.25x) of
   the untraced run, with an absolute slack floor so sub-second runs on
   noisy CI machines cannot flake the ratio.

Exit code 0 on success; prints the failure and exits 1 otherwise.
Artifacts are left at ``--outdir`` for upload.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import EngineConfig, MicroBatchEngine, make_partitioner
from repro.obs import ObservabilityConfig, parse_prometheus, read_chrome_trace
from repro.queries import wordcount_query
from repro.workloads import tweets_source

#: wall-clock slack added to the ratio bound: scheduler jitter on a
#: shared CI runner can dominate a run this short
ABSOLUTE_SLACK_SECONDS = 0.75

REQUIRED_SPANS = {
    "run", "batch", "buffer", "partition", "execute",
    "map_task", "shuffle", "reduce_task", "window_merge",
}
REQUIRED_SAMPLES = (
    "prompt_batches_total",
    "prompt_tuples_total",
    "prompt_batch_latency_seconds_count",
    "prompt_partition_plan_seconds_count",
    "prompt_task_attempts_total",
)


def _run_quickstart(obs: ObservabilityConfig | None) -> float:
    engine = MicroBatchEngine(
        make_partitioner("prompt"),
        wordcount_query(window_length=10.0),
        EngineConfig(
            batch_interval=1.0,
            num_blocks=8,
            num_reducers=8,
            observability=obs,
        ),
    )
    started = time.perf_counter()
    engine.run(tweets_source(rate=5_000.0, seed=42), num_batches=12)
    return time.perf_counter() - started


#: generous ceiling for the guarded no-op span pattern in the dispatch
#: loops (seconds per iteration) — the real cost is a truthiness check,
#: ~10ns, so tripping this means someone reintroduced per-task span
#: construction on the untraced path
NOOP_SPAN_BUDGET_SECONDS = 2e-6
NOOP_SPAN_ITERATIONS = 200_000


def check_noop_span_cost() -> float:
    """Measure the untraced per-task span pattern of the dispatch loops.

    ``execute_batch_tasks`` guards span construction behind
    ``tracer.enabled`` and reuses one shared ``nullcontext`` — entering
    a context manager per task would otherwise dominate the serial
    dispatch loop when observability is off.  This micro-bench runs the
    exact guarded pattern against the no-op tracer and asserts it stays
    effectively free.
    """
    from repro.engine.tasks import _NULL_CM
    from repro.obs.tracing import NULL_TRACER

    tracer = NULL_TRACER
    traced = tracer.enabled
    started = time.perf_counter()
    for i in range(NOOP_SPAN_ITERATIONS):
        with tracer.span("map_task", task_id=i) if traced else _NULL_CM:
            pass
    return (time.perf_counter() - started) / NOOP_SPAN_ITERATIONS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="obs-artifacts")
    parser.add_argument("--max-ratio", type=float, default=1.25)
    args = parser.parse_args(argv)

    per_iter = check_noop_span_cost()
    if per_iter > NOOP_SPAN_BUDGET_SECONDS:
        print(
            f"FAIL: untraced per-task span pattern costs {per_iter:.2e}s/iter "
            f"(budget {NOOP_SPAN_BUDGET_SECONDS:.0e}s) — the dispatch loops "
            f"are paying for spans with tracing off"
        )
        return 1
    print(f"ok: untraced span guard costs {per_iter:.2e}s/iter")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    trace_path = outdir / "quickstart.trace.json"
    metrics_path = outdir / "quickstart.prom"
    jsonl_path = outdir / "quickstart.jsonl"

    # warm-up evens out import/JIT-cache effects between the two runs
    _run_quickstart(None)
    untraced = _run_quickstart(None)
    traced = _run_quickstart(
        ObservabilityConfig(
            trace_path=str(trace_path),
            metrics_path=str(metrics_path),
            jsonl_path=str(jsonl_path),
        )
    )

    events = read_chrome_trace(trace_path)
    names = {e["name"] for e in events}
    missing = REQUIRED_SPANS - names
    if missing:
        print(f"FAIL: trace is missing span names: {sorted(missing)}")
        return 1
    roots = [e for e in events if "parent_id" not in e.get("args", {})]
    if len(roots) != 1 or roots[0]["name"] != "run":
        print(f"FAIL: expected a single 'run' root span, got {roots}")
        return 1

    samples = parse_prometheus(metrics_path.read_text())
    for required in REQUIRED_SAMPLES:
        if required not in samples:
            print(f"FAIL: metrics snapshot is missing {required!r}")
            return 1
    if samples["prompt_batches_total"] != 12:
        print(f"FAIL: expected 12 batches, got {samples['prompt_batches_total']}")
        return 1

    budget = untraced * args.max_ratio + ABSOLUTE_SLACK_SECONDS
    verdict = "ok" if traced <= budget else "FAIL"
    print(
        f"{verdict}: untraced={untraced:.3f}s traced={traced:.3f}s "
        f"budget={budget:.3f}s (ratio bound {args.max_ratio}x "
        f"+ {ABSOLUTE_SLACK_SECONDS}s slack); "
        f"{len(events)} trace events, {len(samples)} metric samples"
    )
    return 0 if traced <= budget else 1


if __name__ == "__main__":
    sys.exit(main())
