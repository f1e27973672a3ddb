"""Partitioner shoot-out: all techniques head-to-head on one grid.

Quality grid (BSI/BCI/KSR/MPI, post-warm-up means, lag-2 load
feedback for the techniques that consume it) plus a runtime grid
(latency distribution + throughput at a fixed offered rate) across the
Zipf sweep, the taxi/tweets replicas, and the churn / hot-flip
scenario axes.

Only one claim is gated: on high-skew rows Prompt wins the joint
balance+replication score and is Pareto-undominated on (BSI, KSR).
Rivals are allowed to win individual metrics — D-/W-Choices routinely
post the lowest raw BSI — and those numbers are reported as-is.
"""

from __future__ import annotations

from repro.bench import format_table
from repro.bench.shootout import (
    SHOOTOUT_EXPONENTS,
    SHOOTOUT_TECHNIQUES,
    joint_imbalance_score,
    partitioner_shootout,
    high_skew_verdicts,
)


def test_partitioner_shootout(record_experiment):
    payload = partitioner_shootout(rate=6_000.0, num_keys=3_000, cost_scale=2.0)
    quality = payload["quality"]
    runtime = payload["runtime"]
    for row in quality:
        row["JointScore"] = joint_imbalance_score(row)
    verdicts = high_skew_verdicts(quality)
    payload["verdicts"] = verdicts
    record_experiment(
        "BENCH_partitioner_shootout",
        format_table(
            quality,
            columns=["Scenario", "Skew", "Technique", "BSI", "BCI", "KSR", "MPI", "JointScore"],
            title="Partitioner shoot-out: partition quality (post-warm-up means)",
        )
        + "\n\n"
        + format_table(
            runtime,
            columns=["Scenario", "Technique", "LatencyMean", "LatencyP95", "Throughput", "Stable"],
            title="Partitioner shoot-out: runtime at fixed offered rate",
        ),
        payload,
    )

    # Grid coverage: every technique on every scenario, >= 3 skew levels.
    assert set(payload["techniques"]) == set(SHOOTOUT_TECHNIQUES)
    skews = {r["Skew"] for r in quality if r["Skew"] is not None}
    assert len(skews) >= 3
    assert len(SHOOTOUT_EXPONENTS) >= 3
    for rows in (quality, runtime):
        cells = {(r["Scenario"], r["Technique"]) for r in rows}
        assert len(cells) == len(payload["scenarios"]) * len(SHOOTOUT_TECHNIQUES)

    # Every run at this rate stays stable — the grids compare quality
    # and latency, not survival.
    assert all(r["Stable"] for r in runtime)

    # The gated claim: joint win + Pareto-undominated on high skew.
    assert verdicts, "expected at least one high-skew scenario"
    for verdict in verdicts:
        assert verdict["JointWin"], verdict
        assert not verdict["DominatedBy"], verdict
