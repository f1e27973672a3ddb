"""Figure 14: what Prompt's machinery costs.

(a) throughput of Prompt vs the post-sort ablation — frequency-aware
buffering hides the sort inside batching, post-sort pays it inside the
heartbeat; (b) measured Algorithm 2 latency as % of the batch interval
(paper: bounded by 5%, hidden entirely by Early Batch Release).
"""

from __future__ import annotations

from repro.bench import (
    fig14a_post_sort_throughput,
    fig14b_partition_overhead,
    format_table,
)


def test_fig14a_post_sort_throughput(record_experiment):
    rows = fig14a_post_sort_throughput(
        num_batches=3,
        num_keys=40_000,
        exponent=0.6,
        tolerance=0.1,
        initial_rate=6_000.0,
        cost_scale=2.0,
    )
    record_experiment(
        "fig14a_post_sort",
        format_table(rows, title="Figure 14a: Prompt vs post-sort throughput"),
        rows,
    )
    by_name = {r["Technique"]: r["MaxThroughput"] for r in rows}
    assert by_name["prompt"] >= by_name["prompt-postsort"]


def test_fig14b_partition_overhead(record_experiment):
    rows = fig14b_partition_overhead(
        rates=(5_000.0, 10_000.0, 20_000.0, 40_000.0)
    )
    record_experiment(
        "fig14b_overhead",
        format_table(rows, title="Figure 14b: Algorithm 2 cost as % of a 1 s batch interval"),
        rows,
    )
    for row in rows:
        # Phase attribution: buffering (Alg 1) and planning (Alg 2) are
        # reported separately, and together never exceed the measured
        # end-to-end wall-clock of the partition call.
        assert row["Alg1WallSeconds"] > 0.0, row
        assert row["Alg2WallSeconds"] > 0.0, row
        assert (
            row["Alg1WallSeconds"] + row["Alg2WallSeconds"]
            <= row["TotalWallSeconds"] * 1.05
        ), row
        # Figure 14b's bound applies to the plan step alone.
        assert row["OverheadPct"] < 5.0, row
