"""Benchmark harness regenerating the paper's tables and figures."""

from .experiments import (
    PAPER_TECHNIQUES,
    fig6_assignment_tradeoffs,
    fig10_partition_metrics,
    fig11_throughput_vs_interval,
    fig11d_skew_sweep,
    fig12_elasticity,
    fig13_latency_distribution,
    fig14a_post_sort_throughput,
    fig14b_partition_overhead,
    table1_dataset_stats,
)
from .harness import ThroughputResult, ThroughputSearch, run_at_rate
from .report import render_run, sparkline
from .reporting import format_series, format_table, results_dir, save_results
from .sharding import DEFAULT_SHARD_COUNTS, bench_sharding_scaleout, scaleout_gate
from .shootout import (
    SHOOTOUT_TECHNIQUES,
    ShootoutScenario,
    joint_imbalance_score,
    partitioner_shootout,
    high_skew_verdicts,
    shootout_quality,
    shootout_runtime,
    shootout_scenarios,
)
from .speedup import bench_parallel_speedup, heavy_count_one

__all__ = [
    "DEFAULT_SHARD_COUNTS",
    "PAPER_TECHNIQUES",
    "SHOOTOUT_TECHNIQUES",
    "ShootoutScenario",
    "ThroughputResult",
    "ThroughputSearch",
    "bench_parallel_speedup",
    "bench_sharding_scaleout",
    "fig6_assignment_tradeoffs",
    "fig10_partition_metrics",
    "fig11_throughput_vs_interval",
    "fig11d_skew_sweep",
    "fig12_elasticity",
    "fig13_latency_distribution",
    "fig14a_post_sort_throughput",
    "fig14b_partition_overhead",
    "format_series",
    "format_table",
    "heavy_count_one",
    "joint_imbalance_score",
    "partitioner_shootout",
    "high_skew_verdicts",
    "render_run",
    "results_dir",
    "scaleout_gate",
    "shootout_quality",
    "shootout_runtime",
    "shootout_scenarios",
    "sparkline",
    "run_at_rate",
    "save_results",
    "table1_dataset_stats",
]
