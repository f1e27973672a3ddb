"""Figure 13: reduce-task completion-time distribution, Time-based vs Prompt.

Paper shape: under the default time-based partitioner the per-batch
reduce times are highly variable (wide band between mean and max);
Prompt collapses the spread, which is what keeps latency bounded while
throughput rises.
"""

from __future__ import annotations

from repro.bench import fig13_latency_distribution, format_table


def test_fig13_latency_distribution(record_experiment):
    out = fig13_latency_distribution(
        techniques=("time", "prompt"),
        num_batches=60,
        rate=12_000.0,
        exponent=1.2,
    )
    summary_rows = [
        {
            "Technique": name,
            "MeanReduceTime": data["mean_reduce_time"],
            "MeanMaxReduceTime": data["mean_max_reduce_time"],
            "MeanSpread(max-mean)": data["mean_spread"],
            "LatencyMean": data["latency_mean"],
            "LatencyP95": data["latency_p95"],
        }
        for name, data in out["techniques"].items()
    ]
    record_experiment(
        "fig13_latency_distribution",
        format_table(summary_rows, title="Figure 13: reduce-task time distribution (60 batches)"),
        {
            name: {k: v for k, v in data.items() if k != "series"}
            for name, data in out["techniques"].items()
        },
    )
    time_based = out["techniques"]["time"]
    prompt = out["techniques"]["prompt"]
    # Prompt tightens the reduce-time band and the tail latency.
    assert prompt["mean_spread"] < time_based["mean_spread"]
    assert prompt["latency_p95"] <= time_based["latency_p95"] * 1.05
