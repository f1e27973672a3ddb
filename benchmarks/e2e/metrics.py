"""Metric names, units, and how each is computed from the repeats.

The names and units here are the ones ``BENCHMARK.json`` lists; the
smoke test keeps the two in step.  A layer is named after the module
that owns the time.
"""

from __future__ import annotations

import resource
from statistics import median, quantiles
from typing import Optional, Sequence

from measure import SpanLog, Totals, UntracedRepeat
from workloads import WARMUP_BATCHES

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "end_to_end",
    "per_layer",
    "peak_rss_mb",
    "spread",
]

END_TO_END: dict[str, str] = {
    "tuples_per_s": "1/s",
    "batch_wall_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "model_load_mean": "ratio",
}

PER_LAYER: dict[str, str] = {
    "engine.receiver.collect_us_per_tuple": "us/tuple",
    "engine.lateness.late_accepted": "count",
    "engine.lateness.overdue": "count",
    "partitioners.partition_us_per_tuple": "us/tuple",
    "core.buffering.us_per_tuple": "us/tuple",
    "core.batch_partitioner.plan_us_per_tuple": "us/tuple",
    "core.batch_partitioner.plan_us_per_key": "us/key",
    "core.early_release.miss_rate": "ratio",
    "core.metrics.bsi_mean": "tuples",
    "core.metrics.bci_mean": "keys",
    "core.metrics.ksr_mean": "ratio",
    "core.metrics.mpi_mean": "ratio",
    "core.batch.distinct_keys_per_batch": "keys/batch",
    "core.batch.split_keys_per_batch": "keys/batch",
    "engine.tasks.map_us_per_tuple": "us/tuple",
    "core.reduce_allocator.allocate_us_per_cluster": "us/cluster",
    "core.reduce_allocator.bucket_imbalance_mean": "clusters",
    "engine.tasks.shuffle_us_per_tuple": "us/tuple",
    "engine.tasks.shuffle_fragments_per_batch": "count/batch",
    "engine.tasks.reduce_us_per_tuple": "us/tuple",
    "engine.windows.add_batch_us_per_tuple": "us/tuple",
    "engine.windows.add_batch_us_per_key": "us/key",
    "engine.windows.answer_keys_mean": "keys",
    "engine.state.put_evict_us_per_tuple": "us/tuple",
    "engine.executors.run_batch_us_per_tuple": "us/tuple",
    "engine.executors.task_wall_us_per_tuple": "us/tuple",
    "engine.executors.task_share": "ratio",
    "engine.executors.payload_bytes_per_tuple": "B/tuple",
    "engine.executors.context_bytes": "B",
    "engine.executors.context_installs": "count",
    "engine.executors.task_attempts": "count",
    "engine.executors.task_retries": "count",
    "engine.executors.fallbacks": "count",
    "engine.executors.par_over_serial_wall_ratio": "ratio",
    "engine.driver_residual_us_per_tuple": "us/tuple",
    "engine.driver_residual_share": "ratio",
    "engine.batch_wall_ms_p90": "ms",
    "engine.batch_wall_samples": "count",
    "engine.peak_rss_delta_mb": "MB",
    "bench.generate_s": "s",
    "bench.reference_s": "s",
    "bench.traced_over_untraced_wall_ratio": "ratio",
}

#: spans whose time is a layer's; everything else inside a heartbeat
#: (batch_output, split-set build, loop overhead) is driver residual
LAYER_SPANS = (
    "engine.receiver.collect",
    "partitioners.partition",
    "engine.tasks.map",
    "engine.tasks.shuffle",
    "engine.tasks.reduce",
    "engine.executors.run_batch",
    "engine.state.put_evict",
    "engine.windows.add_batch",
)

US = 1e6


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 under 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(
    repeats: Sequence[UntracedRepeat], import_s: Sequence[float]
) -> tuple[dict[str, float], dict[str, list[float]]]:
    """The end-to-end metrics, and the per-repeat samples behind them."""
    samples = {
        "tuples_per_s": [r.tuples_per_s for r in repeats],
        "batch_wall_ms_p50": [1e3 * median(r.batch_walls) for r in repeats],
        "setup_s": [median(import_s) + r.setup_s for r in repeats],
    }
    walls = [w for r in repeats for w in r.batch_walls]
    values = {
        "tuples_per_s": median(samples["tuples_per_s"]),
        "batch_wall_ms_p50": 1e3 * median(walls),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": median(samples["setup_s"]),
        "model_load_mean": repeats[0].model_load_mean,
    }
    return values, samples


def per_layer(
    untraced: Sequence[UntracedRepeat],
    traced: Sequence[Totals],
    log: SpanLog,
    *,
    serial_baseline: Optional[Sequence[UntracedRepeat]],
    peak_rss_delta_mb: float,
    generate_s: float,
    reference_s: float,
) -> dict[str, float]:
    seconds = log.seconds_by_name(WARMUP_BATCHES)
    # Timings pool every traced repeat; counts come from the first one
    # alone, so they repeat exactly however many repeats the clock allowed.
    first = traced[0]
    tuples = sum(r["tuples"] for r in traced)
    batches = first["batches"]

    def summed(key: str) -> float:
        return sum(r[key] for r in traced)

    def us_per_tuple(span: str) -> float:
        return US * seconds[span] / tuples

    untraced_us = US / median(r.tuples_per_s for r in untraced)
    layers_us = sum(us_per_tuple(name) for name in LAYER_SPANS)
    traced_wall = seconds["heartbeat"] - seconds["bench.diagnostics"]
    run_batch_s = seconds["engine.executors.run_batch"]
    walls = [w for r in untraced for w in r.batch_walls]
    windows_s = seconds["engine.windows.add_batch"]
    values = {
        "engine.receiver.collect_us_per_tuple": us_per_tuple(
            "engine.receiver.collect"
        ),
        "engine.lateness.late_accepted": first["late_accepted"],
        "engine.lateness.overdue": first["overdue"],
        "partitioners.partition_us_per_tuple": us_per_tuple(
            "partitioners.partition"
        ),
        "core.buffering.us_per_tuple": US * summed("buffer_s") / tuples,
        "core.batch_partitioner.plan_us_per_tuple": US * summed("plan_s") / tuples,
        "core.batch_partitioner.plan_us_per_key": US
        * summed("plan_s")
        / summed("distinct_keys"),
        "core.early_release.miss_rate": median(
            r.early_release_miss_rate for r in untraced
        ),
        "core.metrics.bsi_mean": first["bsi"] / batches,
        "core.metrics.bci_mean": first["bci"] / batches,
        "core.metrics.ksr_mean": first["ksr"] / batches,
        "core.metrics.mpi_mean": first["mpi"] / batches,
        "core.batch.distinct_keys_per_batch": first["distinct_keys"] / batches,
        "core.batch.split_keys_per_batch": first["split_keys"] / batches,
        "engine.tasks.map_us_per_tuple": us_per_tuple("engine.tasks.map"),
        "core.reduce_allocator.allocate_us_per_cluster": US
        * summed("allocate_s")
        / summed("clusters"),
        "core.reduce_allocator.bucket_imbalance_mean": first["bucket_imbalance"]
        / batches,
        "engine.tasks.shuffle_us_per_tuple": us_per_tuple("engine.tasks.shuffle"),
        "engine.tasks.shuffle_fragments_per_batch": first["fragments"] / batches,
        "engine.tasks.reduce_us_per_tuple": us_per_tuple("engine.tasks.reduce"),
        "engine.windows.add_batch_us_per_tuple": US * windows_s / tuples,
        "engine.windows.add_batch_us_per_key": US
        * windows_s
        / summed("output_keys"),
        "engine.windows.answer_keys_mean": first["answer_keys"] / batches,
        "engine.state.put_evict_us_per_tuple": us_per_tuple(
            "engine.state.put_evict"
        ),
        "engine.executors.run_batch_us_per_tuple": US * run_batch_s / tuples,
        "engine.executors.task_wall_us_per_tuple": (
            US * summed("task_wall_s") / tuples if run_batch_s else 0.0
        ),
        "engine.executors.task_share": _ratio(summed("task_wall_s"), run_batch_s),
        "engine.executors.payload_bytes_per_tuple": summed("payload_bytes")
        / tuples,
        "engine.executors.context_bytes": first["context_bytes"],
        "engine.executors.context_installs": first["context_installs"],
        "engine.executors.task_attempts": first["task_attempts"],
        "engine.executors.task_retries": first["task_retries"],
        "engine.executors.fallbacks": first["fallbacks"],
        "engine.executors.par_over_serial_wall_ratio": (
            untraced_us * median(r.tuples_per_s for r in serial_baseline) / US
            if serial_baseline
            else 0.0
        ),
        "engine.driver_residual_us_per_tuple": untraced_us - layers_us,
        "engine.driver_residual_share": (untraced_us - layers_us) / untraced_us,
        "engine.batch_wall_ms_p90": 1e3 * quantiles(walls, n=10)[-1],
        "engine.batch_wall_samples": len(walls),
        "engine.peak_rss_delta_mb": peak_rss_delta_mb,
        "bench.generate_s": generate_s,
        "bench.reference_s": reference_s,
        "bench.traced_over_untraced_wall_ratio": US
        * traced_wall
        / tuples
        / untraced_us,
    }
    return values
