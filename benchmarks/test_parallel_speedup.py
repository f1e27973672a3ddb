"""Execution-backend microbenchmark: serial vs parallel wall-clock.

Runs the Zipf-skew (SynD) WordCount workload through both execution
backends and records real wall-clock per backend, in a light variant
(IPC-dominated — parallel dispatch is expected to cost more than it
saves) and a CPU-heavy variant (where one process per data block pays
off).  The bench itself asserts bit-identical outputs before reporting
any timing, so the artifact can never show a speedup obtained by
changing the answer.

Artifact: ``benchmarks/results/BENCH_parallel_speedup.json``.
"""

from __future__ import annotations

from repro.bench import bench_parallel_speedup, format_table


def test_parallel_speedup(record_experiment):
    rows = bench_parallel_speedup(
        rate=4_000.0,
        num_batches=5,
        num_keys=2_000,
        exponent=1.4,
        num_blocks=8,
        workers=2,
    )
    record_experiment(
        "BENCH_parallel_speedup",
        format_table(rows, title="Serial vs parallel backend wall-clock"),
        rows,
    )
    assert len(rows) == 2
    for row in rows:
        # equality is asserted inside the bench; re-check the flag here
        assert row["OutputsIdentical"] is True
        assert row["ParallelFallbacks"] == 0
        assert row["SerialWallSeconds"] > 0
        assert row["ParallelWallSeconds"] > 0
    heavy = next(r for r in rows if r["Workload"] == "wordcount-heavy")
    # Parallel dispatch can only beat serial when there are cores to
    # fan out to; on a single-core box the artifact records the honest
    # loss and we only sanity-check the run wasn't pathological.
    if heavy["CpuCount"] >= 4:
        assert heavy["Speedup"] > 0.9
    else:
        assert heavy["Speedup"] > 0.2
