"""Per-figure experiment definitions (Section 7 of the paper).

Each function regenerates one paper artifact and returns structured
rows; the ``benchmarks/`` suite runs them at full scale and prints the
tables, while unit tests invoke them with tiny parameters to pin the
qualitative shapes.  Experiment IDs follow DESIGN.md's index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from ..core.batch import BatchInfo
from ..core.config import ElasticityConfig
from ..core.metrics import evaluate_partition, relative_metric
from ..engine.cluster import ClusterConfig
from ..engine.engine import EngineConfig, MicroBatchEngine
from ..engine.tasks import TaskCostModel
from ..partitioners.bpfi import (
    assignment_cardinalities,
    assignment_fragments,
    assignment_sizes,
    first_fit_decreasing,
    fragmentation_minimization,
)
from ..partitioners.prompt import PromptPartitioner
from ..partitioners.registry import make_partitioner
from ..queries.wordcount import wordcount_query
from ..workloads.arrival import ConstantRate, RampRate, SinusoidalRate
from ..workloads.elastic import ElasticWorkloadSource
from ..workloads.source import StreamSource
from ..workloads.synd import SYND_EXPONENTS, synd_source
from ..workloads.tweets import tweets_source
from ..workloads.tpch import tpch_lineitem_source
from ..workloads.debs_taxi import debs_taxi_source
from ..workloads.gcm import gcm_source
from .harness import ThroughputSearch

__all__ = [
    "PAPER_TECHNIQUES",
    "table1_dataset_stats",
    "fig6_assignment_tradeoffs",
    "fig10_partition_metrics",
    "fig11_throughput_vs_interval",
    "fig11d_skew_sweep",
    "fig12_elasticity",
    "fig13_latency_distribution",
    "fig14a_post_sort_throughput",
    "fig14b_partition_overhead",
]

#: the techniques compared throughout Section 7, in figure order
PAPER_TECHNIQUES: tuple[str, ...] = (
    "time",
    "shuffle",
    "hash",
    "pk2",
    "pk5",
    "cam",
    "prompt",
)


def _dataset_factories(seed: int) -> dict[str, Callable[..., StreamSource]]:
    return {
        "tweets": lambda **kw: tweets_source(seed=seed, **kw),
        "tpch": lambda **kw: tpch_lineitem_source(seed=seed, **kw),
        "synd": lambda **kw: synd_source(1.0, seed=seed, **kw),
        "debs": lambda **kw: debs_taxi_source(seed=seed, **kw),
        "gcm": lambda **kw: gcm_source(seed=seed, **kw),
    }


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def table1_dataset_stats(
    *, rate: float = 10_000.0, sample_seconds: float = 2.0, seed: int = 11
) -> list[dict[str, Any]]:
    """Table 1: dataset properties, paper vs. the scaled generators."""
    sources = [
        tweets_source(rate=rate, seed=seed),
        synd_source(1.0, rate=rate, seed=seed),
        debs_taxi_source(rate=rate, seed=seed),
        gcm_source(rate=rate, seed=seed),
        tpch_lineitem_source(rate=rate, seed=seed),
    ]
    rows = []
    for source in sources:
        tuples = source.tuples_between(0.0, sample_seconds)
        props = source.properties()
        assert props is not None
        rows.append(
            {
                "Name": props.name,
                "PaperSize": props.paper_size,
                "PaperCardinality": props.paper_cardinality,
                "ScaledKeyUniverse": props.scaled_cardinality,
                "SampledTuples": len(tuples),
                "SampledDistinctKeys": len({t.key for t in tuples}),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 6 (illustrative assignment trade-offs)
# ----------------------------------------------------------------------
#: the running example of Figure 5: 385 tuples over 8 distinct keys
FIG5_EXAMPLE: tuple[tuple[str, int], ...] = (
    ("K1", 150),
    ("K2", 80),
    ("K3", 50),
    ("K4", 40),
    ("K5", 25),
    ("K6", 20),
    ("K7", 12),
    ("K8", 8),
)


def fig6_assignment_tradeoffs(num_bins: int = 4) -> list[dict[str, Any]]:
    """Figure 6: FFD vs FragMin vs Prompt on the Figure 5 batch."""
    from ..core.buffering import AccumulatedBatch
    from ..core.tuples import StreamTuple

    items = list(FIG5_EXAMPLE)
    total = sum(s for _, s in items)
    capacity = -(-total // num_bins)
    rows = []
    for label, solver in (
        ("FirstFitDecreasing", first_fit_decreasing),
        ("FragmentationMinimization", fragmentation_minimization),
    ):
        assignment = solver(items, num_bins, capacity)
        rows.append(
            {
                "Strategy": label,
                "Fragments": assignment_fragments(assignment),
                "FragmentedKeys": assignment_fragments(assignment) - len(items),
                "BinSizes": assignment_sizes(assignment),
                "BinCardinalities": assignment_cardinalities(assignment),
            }
        )
    accumulated = AccumulatedBatch.from_chains(
        BatchInfo(0, 0.0, 1.0),
        [k for k, _ in items],
        [[StreamTuple(ts=0.0, key=k, value=None)] * s for k, s in items],
    )
    batch = PromptPartitioner().batch_partitioner.partition(accumulated, num_bins)
    rows.append(
        {
            "Strategy": "Prompt (Algorithm 2)",
            "Fragments": batch.key_fragment_count(),
            "FragmentedKeys": len(batch.split_keys),
            "BinSizes": [b.size for b in batch.blocks],
            "BinCardinalities": [b.cardinality for b in batch.blocks],
        }
    )
    return rows


# ----------------------------------------------------------------------
# Figure 10
# ----------------------------------------------------------------------
def fig10_partition_metrics(
    dataset: str = "tweets",
    *,
    num_blocks: int = 16,
    rate: float = 20_000.0,
    interval: float = 1.0,
    seed: int = 5,
    techniques: Sequence[str] = PAPER_TECHNIQUES,
) -> list[dict[str, Any]]:
    """Figure 10: BSI relative to hashing, BCI relative to shuffle."""
    factory = _dataset_factories(seed)[dataset]
    source = factory(rate=rate)
    tuples = source.tuples_between(0.0, interval)
    info = BatchInfo(0, 0.0, interval)
    qualities = {}
    for name in techniques:
        part = make_partitioner(name)
        batch = part.partition(tuples, num_blocks, info)
        batch.validate(expected_tuples=len(tuples))
        qualities[name] = evaluate_partition(batch)
    hash_bsi = qualities["hash"].bsi if "hash" in qualities else 1.0
    shuffle_bci = qualities["shuffle"].bci if "shuffle" in qualities else 1.0
    rows = []
    for name in techniques:
        q = qualities[name]
        rows.append(
            {
                "Technique": name,
                "Dataset": dataset,
                "BSI": q.bsi,
                "BSI_rel_hash": relative_metric(q.bsi, hash_bsi),
                "BCI": q.bci,
                "BCI_rel_shuffle": relative_metric(q.bci, shuffle_bci),
                "KSR": q.ksr,
                "MPI": q.mpi,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 11
# ----------------------------------------------------------------------
def _bench_config(
    batch_interval: float,
    *,
    num_blocks: int = 8,
    num_reducers: int = 8,
    cost_scale: float = 1.0,
) -> EngineConfig:
    """Engine config for throughput probing.

    ``cost_scale`` multiplies the variable task costs: scaling costs up
    moves the stability boundary to proportionally lower rates, which
    shrinks the number of tuples each probe must simulate without
    changing any relative ordering between techniques.
    """
    base = TaskCostModel()
    cm = TaskCostModel(
        map_fixed=base.map_fixed,
        map_per_tuple=base.map_per_tuple * cost_scale,
        map_per_key=base.map_per_key * cost_scale,
        reduce_fixed=base.reduce_fixed,
        reduce_per_tuple=base.reduce_per_tuple * cost_scale,
        reduce_per_fragment=base.reduce_per_fragment * cost_scale,
    )
    return EngineConfig(
        batch_interval=batch_interval,
        num_blocks=num_blocks,
        num_reducers=num_reducers,
        cluster=ClusterConfig(num_nodes=4, cores_per_node=4),
        cost_model=cm,
        track_outputs=False,  # throughput probing: skip answer assembly
    )


def fig11_throughput_vs_interval(
    *,
    intervals: Sequence[float] = (1.0, 2.0, 3.0),
    techniques: Sequence[str] = PAPER_TECHNIQUES,
    num_batches: int = 5,
    rate_amplitude: float = 0.8,
    rate_period: float = 4.0,
    num_keys: int = 20_000,
    exponent: float = 1.4,
    tolerance: float = 0.08,
    seed: int = 7,
    initial_rate: float = 8_000.0,
    cost_scale: float = 1.0,
) -> list[dict[str, Any]]:
    """Figure 11a-c: max throughput under a sinusoidal rate per interval."""
    rows = []
    for interval in intervals:
        def factory(rate: float) -> StreamSource:
            arrival = SinusoidalRate(
                mean=rate, amplitude=rate_amplitude * rate, period=rate_period
            )
            return synd_source(
                exponent, num_keys=num_keys, arrival=arrival, seed=seed
            )

        search = ThroughputSearch(
            query=wordcount_query(window_length=10 * interval),
            config=_bench_config(interval, cost_scale=cost_scale),
            source_factory=factory,
            num_batches=num_batches,
            tolerance=tolerance,
            initial_rate=initial_rate,
        )
        for result in search.compare(list(techniques)):
            rows.append(
                {
                    "BatchInterval": interval,
                    "Technique": result.technique,
                    "MaxThroughput": result.max_rate,
                    "Probes": result.probes,
                }
            )
    return rows


def fig11d_skew_sweep(
    *,
    exponents: Sequence[float] = SYND_EXPONENTS,
    techniques: Sequence[str] = PAPER_TECHNIQUES,
    batch_interval: float = 3.0,
    num_batches: int = 4,
    num_keys: int = 20_000,
    tolerance: float = 0.1,
    seed: int = 7,
    initial_rate: float = 8_000.0,
    cost_scale: float = 1.0,
) -> list[dict[str, Any]]:
    """Figure 11d: max throughput vs Zipf exponent (interval 3 s)."""
    rows = []
    for z in exponents:
        def factory(rate: float) -> StreamSource:
            return synd_source(
                z, num_keys=num_keys, arrival=ConstantRate(rate), seed=seed
            )

        search = ThroughputSearch(
            query=wordcount_query(window_length=10 * batch_interval),
            config=_bench_config(batch_interval, cost_scale=cost_scale),
            source_factory=factory,
            num_batches=num_batches,
            tolerance=tolerance,
            initial_rate=initial_rate,
        )
        for result in search.compare(list(techniques)):
            rows.append(
                {
                    "Zipf_z": z,
                    "Technique": result.technique,
                    "MaxThroughput": result.max_rate,
                    "Probes": result.probes,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 12
# ----------------------------------------------------------------------
def fig12_elasticity(
    *,
    direction: str = "out",
    num_batches: int = 40,
    batch_interval: float = 1.0,
    low_rate: float = 3_000.0,
    high_rate: float = 18_000.0,
    low_keys: int = 500,
    high_keys: int = 5_000,
    seed: int = 13,
) -> dict[str, Any]:
    """Figure 12: auto-scaling under a growing ("out") or shrinking
    ("in") workload.  Returns per-batch series of offered load, task
    counts, and the load ratio W; back-pressure is disabled so the
    elasticity controller is the only defence (Section 7.2)."""
    if direction not in ("out", "in"):
        raise ValueError(f"direction must be 'out' or 'in', got {direction}")
    span = num_batches * batch_interval
    if direction == "out":
        arrival = RampRate(low_rate, high_rate, 0.2 * span, 0.8 * span)
        source = ElasticWorkloadSource(
            arrival,
            keys_start=low_keys,
            keys_end=high_keys,
            t0=0.2 * span,
            t1=0.8 * span,
            seed=seed,
        )
        start_tasks = 2
    else:
        arrival = RampRate(high_rate, low_rate, 0.2 * span, 0.8 * span)
        source = ElasticWorkloadSource(
            arrival,
            keys_start=high_keys,
            keys_end=low_keys,
            t0=0.2 * span,
            t1=0.8 * span,
            seed=seed,
        )
        start_tasks = 12
    config = EngineConfig(
        batch_interval=batch_interval,
        num_blocks=start_tasks,
        num_reducers=start_tasks,
        cluster=ClusterConfig(num_nodes=16, cores_per_node=4),
        # Heavier per-tuple work than the throughput benches so the ramp
        # traverses all three elasticity zones at these modest rates.
        cost_model=TaskCostModel(map_per_tuple=4e-4, reduce_per_fragment=1e-3),
        elasticity=ElasticityConfig(
            threshold=0.9,
            step=0.3,
            window=2,
            grace=1,
            max_map_tasks=32,
            max_reduce_tasks=32,
        ),
        track_outputs=False,
    )
    engine = MicroBatchEngine(make_partitioner("prompt"), wordcount_query(), config)
    result = engine.run(source, num_batches)
    series = [
        {
            "Batch": r.index,
            "OfferedRate": r.tuple_count / batch_interval,
            "Keys": r.key_count,
            "MapTasks": r.map_tasks,
            "ReduceTasks": r.reduce_tasks,
            "Load_W": round(r.load, 4),
        }
        for r in result.stats.records
    ]
    return {
        "direction": direction,
        "series": series,
        "actions": [d.reason for d in result.scaling_history if d.acted],
    }


# ----------------------------------------------------------------------
# Figure 13
# ----------------------------------------------------------------------
def fig13_latency_distribution(
    *,
    techniques: Sequence[str] = ("time", "prompt"),
    num_batches: int = 60,
    batch_interval: float = 1.0,
    rate: float = 12_000.0,
    exponent: float = 1.2,
    seed: int = 17,
) -> dict[str, Any]:
    """Figure 13: reduce-task completion-time spread, per technique."""
    out: dict[str, Any] = {"techniques": {}}
    for name in techniques:
        arrival = SinusoidalRate(mean=rate, amplitude=0.7 * rate, period=5.0)
        source = synd_source(exponent, arrival=arrival, seed=seed)
        engine = MicroBatchEngine(
            make_partitioner(name),
            wordcount_query(),
            _bench_config(batch_interval),
        )
        result = engine.run(source, num_batches)
        reduce_series = result.stats.reduce_time_series()
        means = [m for _, m, _ in reduce_series]
        maxes = [x for _, _, x in reduce_series]
        spreads = [x - m for _, m, x in reduce_series]
        out["techniques"][name] = {
            "series": reduce_series,
            "mean_reduce_time": sum(means) / len(means),
            "mean_max_reduce_time": sum(maxes) / len(maxes),
            "mean_spread": sum(spreads) / len(spreads),
            "latency_mean": result.stats.mean_latency(),
            "latency_p95": result.stats.p95_latency(),
        }
    return out


# ----------------------------------------------------------------------
# Figure 14
# ----------------------------------------------------------------------
def fig14a_post_sort_throughput(
    *,
    batch_interval: float = 1.0,
    num_batches: int = 5,
    num_keys: int = 40_000,
    exponent: float = 0.8,
    tolerance: float = 0.08,
    seed: int = 19,
    initial_rate: float = 8_000.0,
    cost_scale: float = 1.0,
) -> list[dict[str, Any]]:
    """Figure 14a: throughput of Prompt vs the post-sort ablation.

    A lower exponent / bigger universe means more distinct keys per
    batch, i.e. a more expensive heartbeat sort to hide.
    """
    def factory(rate: float) -> StreamSource:
        return synd_source(
            exponent, num_keys=num_keys, arrival=ConstantRate(rate), seed=seed
        )

    search = ThroughputSearch(
        query=wordcount_query(window_length=10 * batch_interval),
        config=_bench_config(batch_interval, cost_scale=cost_scale),
        source_factory=factory,
        num_batches=num_batches,
        tolerance=tolerance,
        initial_rate=initial_rate,
    )
    rows = []
    for technique in ("prompt", "prompt-postsort"):
        result = search.find_max_rate(technique)
        rows.append(
            {"Technique": technique, "MaxThroughput": result.max_rate}
        )
    return rows


def fig14b_partition_overhead(
    *,
    batch_interval: float = 1.0,
    rates: Sequence[float] = (5_000.0, 10_000.0, 20_000.0, 40_000.0),
    num_blocks: int = 8,
    exponent: float = 1.0,
    seed: int = 19,
) -> list[dict[str, Any]]:
    """Figure 14b: measured Algorithm 2 cost as % of the batch interval.

    This is real wall-clock time of the partitioning pass compared to
    the interval it must hide inside — the paper observes <= 5%.
    """
    rows = []
    info = BatchInfo(0, 0.0, batch_interval)
    for rate in rates:
        source = synd_source(exponent, arrival=ConstantRate(rate), seed=seed)
        tuples = source.tuples_between(0.0, batch_interval)
        part = PromptPartitioner()
        # Warm up interpreter paths once, then measure.
        part.partition(tuples, num_blocks, info)
        started = time.perf_counter()
        batch = part.partition(tuples, num_blocks, info)
        wall = time.perf_counter() - started
        rows.append(
            {
                "Rate": rate,
                "BatchTuples": len(tuples),
                "Keys": len(batch.distinct_keys()),
                "Alg1WallSeconds": batch.buffer_elapsed,
                "Alg2WallSeconds": batch.plan_elapsed,
                "TotalWallSeconds": wall,
                # Figure 14b charges only the Algorithm 2 plan step: the
                # buffering pass replaces ordinary ingestion work and
                # overlaps the interval rather than adding to it.
                "OverheadPct": 100.0 * batch.plan_elapsed / batch_interval,
            }
        )
    return rows
