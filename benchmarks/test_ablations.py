"""Ablations of Prompt's design choices (DESIGN.md section 5).

Not figures from the paper — these quantify the *reasons* behind the
design: the update budget of Algorithm 1, the split cutoff and
placement strategy of Algorithm 2, the WorstFit/retirement rule of
Algorithm 3, and the early-release slack.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import format_table
from repro.core import (
    AccumulatorConfig,
    BatchInfo,
    ClusterColumns,
    EarlyReleaseConfig,
    EarlyReleaseController,
    MicroBatchAccumulator,
    PartitionerConfig,
    PromptBatchPartitioner,
    bpvc_buckets,
    evaluate_partition,
    hash_buckets,
    kernels,
)
from repro.partitioners import PromptPartitioner
from repro.workloads import synd_source, tweets_source

INFO = BatchInfo(0, 0.0, 1.0)


def _tweets_batch(rate=20_000.0, seed=5):
    return tweets_source(rate=rate, seed=seed).tuples_between(0.0, 1.0)


def test_ablation_accumulator_budget(record_experiment):
    """Budgeted lazy updates vs exact per-tuple maintenance.

    The budget bounds CountTree work to ~budget*K repositionings while
    the traversal stays near-sorted — the trade Figure 14a monetizes.
    Each variant buffers the batch through Algorithm 1's kernel.
    """
    tuples = _tweets_batch()

    def run():
        rows = []
        for label, budget, exact in (
            ("budget=1", 1, False),
            ("budget=4", 4, False),
            ("budget=8 (paper)", 8, False),
            ("budget=32", 32, False),
            ("exact (per-tuple)", 8, True),
        ):
            acc = MicroBatchAccumulator(
                AccumulatorConfig(budget=budget, expected_tuples=20_000,
                                  expected_keys=4_000),
                exact_updates=exact,
            )
            batch = kernels.accumulate_batch(tuples, INFO, acc)
            rows.append(
                {
                    "Variant": label,
                    "TreeUpdates": batch.tree_updates,
                    "UpdatesPerTuple": batch.tree_updates / batch.tuple_count,
                    "SortQuality": batch.sort_quality(),
                }
            )
        return rows

    rows = run()
    record_experiment(
        "ablation_budget",
        format_table(rows, title="Ablation: CountTree update budget (Tweets batch)"),
        rows,
    )
    by = {r["Variant"]: r for r in rows}
    exact = by["exact (per-tuple)"]
    paper = by["budget=8 (paper)"]
    assert exact["SortQuality"] == 1.0
    assert paper["TreeUpdates"] < exact["TreeUpdates"] / 2
    assert paper["SortQuality"] >= 0.85
    # more budget -> more updates, better (or equal) sort
    assert by["budget=1"]["TreeUpdates"] <= by["budget=32"]["TreeUpdates"]


def test_ablation_partition_strategy(record_experiment):
    """Greedy (BestFitDecreasing) vs the literal zigzag three-pass text."""
    datasets = {
        "tweets": _tweets_batch(),
        "synd z=1.4": synd_source(1.4, rate=20_000.0, seed=5).tuples_between(0.0, 1.0),
        "synd z=2.0": synd_source(2.0, rate=20_000.0, seed=5).tuples_between(0.0, 1.0),
    }

    def run():
        rows = []
        for ds, tuples in datasets.items():
            for strategy in ("greedy", "zigzag"):
                part = PromptPartitioner(strategy=strategy)
                batch = part.partition(tuples, 16, INFO)
                q = evaluate_partition(batch)
                rows.append(
                    {
                        "Dataset": ds,
                        "Strategy": strategy,
                        "BSI": q.bsi,
                        "BCI": q.bci,
                        "KSR": q.ksr,
                        "MPI": q.mpi,
                    }
                )
        return rows

    rows = run()
    record_experiment(
        "ablation_strategy",
        format_table(rows, title="Ablation: Algorithm 2 placement strategy"),
        rows,
    )
    # Greedy dominates or ties on MPI for the high-cardinality dataset.
    tweets = {r["Strategy"]: r for r in rows if r["Dataset"] == "tweets"}
    assert tweets["greedy"]["MPI"] <= tweets["zigzag"]["MPI"]


def test_ablation_split_cutoff_scale(record_experiment):
    """S_cut scaling: lower cutoffs split more keys (KSR) for balance."""
    tuples = synd_source(1.4, rate=20_000.0, seed=5).tuples_between(0.0, 1.0)

    def run():
        rows = []
        # the exact (post-sort) order; the zigzag blocks copy its chains
        accumulated = kernels.accumulate_batch(tuples, INFO, None)
        for scale in (0.5, 1.0, 2.0, 4.0):
            part = PromptBatchPartitioner(
                PartitionerConfig(split_cutoff_scale=scale), strategy="zigzag"
            )
            batch = part.partition(accumulated, 16)
            q = evaluate_partition(batch)
            rows.append(
                {
                    "CutoffScale": scale,
                    "SplitKeys": len(batch.split_keys),
                    "BSI": q.bsi,
                    "BCI": q.bci,
                    "KSR": q.ksr,
                }
            )
        return rows

    rows = run()
    record_experiment(
        "ablation_cutoff",
        format_table(rows, title="Ablation: key-split cutoff scale (zigzag, SynD z=1.4)"),
        rows,
    )
    assert rows[0]["SplitKeys"] >= rows[-1]["SplitKeys"]
    assert rows[0]["KSR"] >= rows[-1]["KSR"] - 1e-9


def _bucket_imbalance(buckets, sizes, r):
    """Bucket-size imbalance (Eqn. 3) of one allocation: the largest
    bucket load over the mean."""
    loads = np.bincount(buckets, weights=sizes, minlength=r).astype(int).tolist()
    return max(loads) - sum(loads) / r


def test_ablation_reduce_allocation(record_experiment):
    """Algorithm 3 vs conventional hashing on reduce-bucket imbalance."""

    def run():
        rows = []
        for z in (0.6, 1.0, 1.4):
            tuples = synd_source(z, rate=20_000.0, seed=7).tuples_between(0.0, 1.0)
            sizes: dict = {}
            for t in tuples:
                sizes[t.key] = sizes.get(t.key, 0) + 1
            clusters = ClusterColumns(list(sizes), list(sizes.values()))
            split = {k for k, s in sizes.items() if s > 200}
            ours = _bucket_imbalance(bpvc_buckets(clusters, split, 8), clusters.sizes, 8)
            hashed = _bucket_imbalance(hash_buckets(clusters, split, 8), clusters.sizes, 8)
            row = {"Zipf_z": z, "Alg3_Imbalance": ours, "Hash_Imbalance": hashed}
            # a ratio over an exact balance (imbalance 0) has no value
            if ours:
                row["Improvement"] = hashed / ours
            rows.append(row)
        return rows

    rows = run()
    record_experiment(
        "ablation_reduce",
        format_table(rows, title="Ablation: Algorithm 3 vs hash reduce allocation"),
        rows,
    )
    for row in rows:
        assert row["Alg3_Imbalance"] <= row["Hash_Imbalance"] + 1e-9


def test_ablation_early_release_slack(record_experiment):
    """How much slack does Algorithm 2 actually need? (paper: <= 5%).

    Uses the Figure 14b workload (SynD z=1.0, 8 blocks).  Note the
    measured cost is of this pure-Python implementation — the paper's
    5% figure is for their JVM build at far larger batches; what is
    reproducible is the *shape*: a fixed small slack covers the cost,
    and tighter slacks start missing heartbeats.
    """
    tuples = synd_source(1.0, rate=20_000.0, seed=19).tuples_between(0.0, 1.0)

    def run():
        import statistics

        part = PromptPartitioner()
        part.partition(tuples, 8, INFO)  # warm up interpreter paths
        rows = []
        for slack in (0.005, 0.01, 0.02, 0.05, 0.10):
            ctl = EarlyReleaseController(EarlyReleaseConfig(slack_fraction=slack))
            window = ctl.window_for(INFO)
            for _ in range(7):
                batch = part.partition(tuples, 8, INFO)
                ctl.record(batch.plan_elapsed, window)
            elapsed = [e for e, _ in ctl.observations]
            rows.append(
                {
                    "SlackFraction": slack,
                    "Observations": len(elapsed),
                    "MissRate": ctl.miss_rate(),
                    "MedianOverheadPct": 100 * statistics.median(elapsed),
                    "MeanOverheadPct": 100 * sum(elapsed) / len(elapsed),
                    "MaxOverheadPct": 100 * max(elapsed),
                }
            )
        return rows

    rows = run()
    record_experiment(
        "ablation_slack",
        format_table(
            rows,
            title=(
                "Ablation: early-release slack vs measured Alg 2 cost "
                "(MissRate and overhead columns are this host's wall clock)"
            ),
        ),
        rows,
    )
    by = {r["SlackFraction"]: r for r in rows}
    # The paper's 5% budget suffices; the median sidesteps scheduler
    # noise, and at most an occasional outlier run may miss.
    assert by[0.05]["MedianOverheadPct"] <= 5.0
    assert by[0.05]["MissRate"] <= 0.35


def test_ablation_sketch_vs_tree_statistics(record_experiment):
    """CountTree (Alg 1) vs Space-Saving sketch accumulator statistics.

    The sketch tracks only the heavy head in O(1) per tuple; the tail
    is unordered, so Algorithm 2 sees a weaker quasi-sort and balances
    cardinality slightly worse — the price of constant-space stats.
    """
    import time as _time

    datasets = {
        "tweets": _tweets_batch(),
        "synd z=1.4": synd_source(1.4, rate=20_000.0, seed=5).tuples_between(0.0, 1.0),
    }

    def run():
        rows = []
        for ds, tuples in datasets.items():
            for name, part in (
                ("tree (Alg 1)", PromptPartitioner()),
                ("sketch-256", PromptPartitioner(stats="sketch", sketch_capacity=256)),
                ("sketch-32", PromptPartitioner(stats="sketch", sketch_capacity=32)),
            ):
                started = _time.perf_counter()
                batch = part.partition(tuples, 16, INFO)
                wall = _time.perf_counter() - started
                q = evaluate_partition(batch)
                rows.append(
                    {
                        "Dataset": ds,
                        "Statistics": name,
                        "BSI": q.bsi,
                        "BCI": q.bci,
                        "KSR": q.ksr,
                        "MPI": q.mpi,
                        "WallSeconds": wall,
                    }
                )
        return rows

    rows = run()
    record_experiment(
        "ablation_sketch",
        format_table(rows, title="Ablation: accumulator statistics (tree vs sketch)"),
        rows,
    )
    for ds in ("tweets", "synd z=1.4"):
        tree = next(r for r in rows if r["Dataset"] == ds and "tree" in r["Statistics"])
        sk = next(r for r in rows if r["Dataset"] == ds and r["Statistics"] == "sketch-256")
        # the sketch never loses size balance (Alg 2 enforces capacity)
        assert sk["BSI"] <= tree["BSI"] + 5
