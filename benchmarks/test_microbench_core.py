"""Micro-benchmarks of the hot per-tuple / per-batch code paths.

Unlike the figure benches (single-shot experiment regenerations), these
use pytest-benchmark's statistical machinery — multiple rounds, real
timing distributions — on the operations a deployment would care about:
accumulator ingestion (Algorithm 1's kernel, tree or sketch statistics),
Algorithm 2 partitioning, and Algorithm 3 allocation.
"""

from __future__ import annotations

import pytest

from repro.core.batch import BatchInfo
from repro.core.buffering import MicroBatchAccumulator
from repro.core.kernels import accumulate_batch
from repro.core.reduce_allocator import KeyCluster, ReduceBucketAllocator
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


def test_bench_accumulator_ingest(benchmark, batch_tuples):
    """Algorithm 1 ingestion: per-key chains + the budgeted tree updates."""

    def ingest():
        return accumulate_batch(batch_tuples, INFO, MicroBatchAccumulator()).batch

    batch = benchmark(ingest)
    assert batch.tuple_count == len(batch_tuples)


def test_bench_sketch_accumulator_ingest(benchmark, batch_tuples):
    """Sketch-statistics ingestion (the tuple-at-a-time alternative)."""

    def ingest():
        acc = SketchMicroBatchAccumulator(capacity=256)
        return accumulate_batch(batch_tuples, INFO, acc).batch

    batch = benchmark(ingest)
    assert batch.tuple_count == len(batch_tuples)


def test_bench_algorithm2_partition(benchmark, batch_tuples):
    """Algorithm 2 over a pre-sorted 10k-tuple batch (16 blocks)."""
    groups = sorted_key_groups(batch_tuples)
    partitioner = PromptPartitioner()

    def run():
        return partitioner.batch_partitioner.partition(groups, 16, INFO)

    batch = benchmark(run)
    assert batch.total_tuples == len(batch_tuples)


def test_bench_algorithm3_allocate(benchmark):
    """Algorithm 3 over 3k key clusters into 16 buckets."""
    clusters = [
        KeyCluster(key=i, size=(i * 37) % 11 + 1) for i in range(3_000)
    ]
    split = {i for i in range(0, 3_000, 101)}
    allocator = ReduceBucketAllocator(16)

    def run():
        return allocator.allocate(clusters, split)

    out = benchmark(run)
    assert len(out.assignment) == 3_000
