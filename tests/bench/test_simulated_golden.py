"""Simulated-metric golden: 16 engine cells pinned to a checked-in file.

The paper's evaluation runs on a cost model (Eqn. 1), so under a fixed
seed every simulated metric is bit-deterministic: the nine metrics of
each cell in ``CELLS`` must equal ``simulated_golden.json``.  Wall-clock
regressions are ``benchmarks/e2e/compare.py``'s job.

When a PR means to move these numbers, regenerate the file and review
its diff::

    PYTHONPATH=src python tests/bench/test_simulated_golden.py --write
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

import pytest

from repro.bench.harness import run_at_rate
from repro.engine.engine import EngineConfig
from repro.engine.sharding import ShardedEngine
from repro.partitioners import make_partitioner
from repro.queries import wordcount_query
from repro.workloads import (
    MultiTenantSource,
    TenantStream,
    key_churn_source,
    synd_source,
    tweets_source,
)

GOLDEN = Path(__file__).with_name("simulated_golden.json")

RATE = 2_000.0
NUM_BATCHES = 4
SEED = 11
CONFIG = EngineConfig(batch_interval=0.5, num_blocks=4, num_reducers=4)

#: workload name → source factory taking ``rate=`` and ``seed=``
WORKLOADS = {
    "synd-z0.8": partial(synd_source, 0.8, num_keys=1_000),
    "synd-z1.4": partial(synd_source, 1.4, num_keys=1_000),
    "tweets": partial(tweets_source, vocabulary=1_000),
    "churn": partial(key_churn_source, num_keys=1_000),
}

#: (workload, partitioner, shards); shards == 0 is a single engine
CELLS = [
    (workload, partitioner, 0)
    for workload in WORKLOADS
    for partitioner in ("hash", "pk2", "prompt")
] + [
    (workload, partitioner, 2)
    for workload in ("synd-z1.4", "tweets")
    for partitioner in ("hash", "prompt")
]


def cell_label(workload: str, partitioner: str, shards: int) -> str:
    base = f"{workload}/{partitioner}"
    return f"{base}/s{shards}" if shards else base


def _fold(runs, throughput: float, load_mean: float) -> dict:
    """One cell's metrics from its engine run(s): counters sum over
    shards, latency and queue delay take the worst shard."""
    stats = [r.stats for r in runs]
    return {
        "throughput_tuples_per_sec": throughput,
        "latency_mean_seconds": max(s.mean_latency() for s in stats),
        "latency_p95_seconds": max(s.p95_latency() for s in stats),
        "load_mean": load_mean,
        "queue_delay_max_seconds": max(s.max_queue_delay() for s in stats),
        "total_tuples": sum(s.total_tuples for s in stats),
        "stable": all(r.stable for r in runs),
        "task_retries": sum(r.executor_task_retries for r in runs),
        "executor_fallbacks": sum(r.executor_fallbacks for r in runs),
    }


def run_cell(workload: str, partitioner: str, shards: int) -> dict:
    make = WORKLOADS[workload]
    query = wordcount_query(window_length=2.0)
    if not shards:
        result = run_at_rate(
            make_partitioner(partitioner),
            query,
            CONFIG,
            lambda rate: make(rate=rate, seed=SEED),
            RATE,
            NUM_BATCHES,
        )
        return _fold([result], result.stats.throughput(), result.stats.mean_load())
    # a sharded cell: two seed-offset tenants, each at half the rate
    union = MultiTenantSource(
        [
            TenantStream(f"tenant-{i}", make(rate=RATE / 2, seed=SEED + i))
            for i in range(2)
        ]
    )
    engine = ShardedEngine(partitioner, query, CONFIG, num_shards=shards)
    result = engine.run(union, num_batches=NUM_BATCHES)
    return _fold(result.shard_results, result.throughput(), result.mean_load())


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell_label(*cell))
def test_cell_matches_golden(cell):
    label = cell_label(*cell)
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == [cell_label(*c) for c in CELLS]
    actual = run_cell(*cell)
    assert list(actual) == list(golden[label])
    for metric, expected in golden[label].items():
        if isinstance(expected, float):
            expected = pytest.approx(expected, rel=1e-12, abs=0.0)
        assert actual[metric] == expected, f"{label}: {metric}"


@pytest.mark.parametrize(
    "label, throughput, p95",
    [
        ("synd-z1.4/hash", 1937.984, 0.568),
        ("synd-z1.4/prompt", 1928.221, 0.549),
        ("tweets/hash", 1916.866, 0.593),
        ("tweets/prompt", 1896.540, 0.585),
    ],
)
def test_golden_holds_the_recorded_quick_grid_numbers(label, throughput, p95):
    """The four cells EXPERIMENTS.md has shown since the matrix's first
    fill are the same numbers, to the three decimals it printed."""
    cell = json.loads(GOLDEN.read_text())[label]
    assert round(cell["throughput_tuples_per_sec"], 3) == throughput
    assert round(cell["latency_p95_seconds"], 3) == p95


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    # one cell per line: a moved cell is a one-line diff
    rows = [
        f"{json.dumps(cell_label(*cell))}: {json.dumps(run_cell(*cell))}"
        for cell in CELLS
    ]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(CELLS)} cells to {GOLDEN}")
