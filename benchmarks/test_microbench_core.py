"""Smoke runs of the hot per-tuple / per-batch code paths.

Each test calls one operation once on a realistic input and checks its
result: accumulator ingestion (Algorithm 1's kernel, tree or sketch
statistics), Algorithm 2 partitioning, and Algorithm 3 allocation.
Their speed is measured end to end by ``benchmarks/e2e/`` and layer by
layer by its traced repeat, not here.
"""

from __future__ import annotations

import pytest

from repro.core.batch import BatchInfo
from repro.core.buffering import MicroBatchAccumulator
from repro.core.kernels import accumulate_batch
from repro.core.reduce_allocator import ClusterColumns, bpvc_buckets
from repro.core.sketch_accumulator import SketchMicroBatchAccumulator
from repro.core.tuples import sorted_key_groups
from repro.partitioners import PromptPartitioner
from repro.workloads.synd import synd_source

INFO = BatchInfo(0, 0.0, 1.0)


@pytest.fixture(scope="module")
def batch_tuples():
    """One 10k-tuple Zipfian batch, built once."""
    return synd_source(1.2, num_keys=5_000, rate=10_000.0, seed=23).tuples_between(
        0.0, 1.0
    )


def test_bench_accumulator_ingest(batch_tuples):
    """Algorithm 1 ingestion: per-key chains + the budgeted tree updates."""
    batch = accumulate_batch(batch_tuples, INFO, MicroBatchAccumulator()).batch
    assert batch.tuple_count == len(batch_tuples)


def test_bench_sketch_accumulator_ingest(batch_tuples):
    """Sketch-statistics ingestion (the tuple-at-a-time alternative)."""
    acc = SketchMicroBatchAccumulator(capacity=256)
    batch = accumulate_batch(batch_tuples, INFO, acc).batch
    assert batch.tuple_count == len(batch_tuples)


def test_bench_algorithm2_partition(batch_tuples):
    """Algorithm 2 over a pre-sorted 10k-tuple batch (16 blocks)."""
    groups = sorted_key_groups(batch_tuples)
    batch = PromptPartitioner().batch_partitioner.partition(groups, 16, INFO)
    assert batch.total_tuples == len(batch_tuples)


def test_bench_algorithm3_allocate():
    """Algorithm 3 over 3k key clusters into 16 buckets."""
    keys = list(range(3_000))
    clusters = ClusterColumns(keys, [(i * 37) % 11 + 1 for i in keys])
    split = {i for i in range(0, 3_000, 101)}
    buckets = bpvc_buckets(clusters, split, 16)
    assert len(buckets) == 3_000
    assert all(0 <= j < 16 for j in buckets)
