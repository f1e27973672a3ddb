"""Variable tuple weights: the paper's 'easily extended' formulation.

Section 4.2: "Without loss of granularity, we assume that the data
tuples are of the same size for simplicity.  However, our problem
formulation can be easily extended to variable tuple sizes."  This
suite exercises that extension end to end: block sizes, capacities,
splits, and metrics must all account for weights, not tuple counts.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchInfo
from repro.core.batch_partitioner import PromptBatchPartitioner
from repro.core.buffering import AccumulatedBatch
from repro.core.metrics import evaluate_partition
from repro.core.tuples import StreamTuple
from repro.partitioners import HashPartitioner, ShufflePartitioner

INFO = BatchInfo(0, 0.0, 1.0)


def _weighted_batch(spec: dict) -> AccumulatedBatch:
    """spec: key -> list of tuple weights; keys heaviest first."""
    items = sorted(spec.items(), key=lambda kv: -sum(kv[1]))
    return AccumulatedBatch.from_chains(
        INFO,
        [k for k, _ in items],
        [[StreamTuple(ts=0.0, key=k, weight=w) for w in weights] for k, weights in items],
    )


def test_key_group_size_uses_weights():
    """A key's size is its tuples' total weight; its count, their number."""
    batch = _weighted_batch({"a": [3, 2, 5], "b": [1]})
    assert batch.sizes.tolist() == [10, 1]
    assert batch.counts.tolist() == batch.tracked.tolist() == [3, 1]
    assert (batch.tuple_count, batch.total_weight) == (4, 11)
    assert not batch.unit_weights
    assert [w.tolist() for w in batch.chain_weights] == [[3, 2, 5], [1]]


def test_partitioner_balances_by_weight_not_count():
    # one key with few heavy tuples vs many keys with light tuples
    spec = {"heavy": [10] * 6}
    spec.update({f"light{i}": [1] * 4 for i in range(14)})  # 56 light weight
    accumulated = _weighted_batch(spec)
    total = accumulated.total_weight
    batch = PromptBatchPartitioner().partition(accumulated, 4)
    capacity = math.ceil(total / 4)
    # Indivisible tuple weights bound any heuristic at one max-weight
    # tuple of overshoot per block.
    for block in batch.blocks:
        assert block.size <= capacity + 10
    q = evaluate_partition(batch)
    assert q.bsi <= 10  # one heavy tuple of slack at most


def test_heavy_key_splits_on_weight_boundaries():
    accumulated = _weighted_batch({"whale": [7] * 20, "krill": [1] * 4})
    batch = PromptBatchPartitioner().partition(accumulated, 4)
    batch.validate(expected_tuples=24)
    # the whale (140 of 144 weight) cannot fit one block of ~36
    assert "whale" in batch.split_keys
    # weight conservation per key
    whale_weight = sum(
        sum(t.weight for t in b.fragment("whale")) for b in batch.blocks
    )
    assert whale_weight == 140


def test_streaming_partitioners_track_weights_in_block_sizes():
    tuples = [
        StreamTuple(ts=i * 0.01, key=f"k{i}", weight=(i % 5) + 1) for i in range(50)
    ]
    for part in (ShufflePartitioner(), HashPartitioner()):
        batch = part.partition(tuples, 4, INFO)
        assert batch.total_size == sum(t.weight for t in tuples)


@given(
    spec=st.dictionaries(
        st.integers(0, 20),
        st.lists(st.integers(1, 9), min_size=1, max_size=10),
        min_size=1,
        max_size=25,
    ),
    num_blocks=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_property_weighted_conservation(spec, num_blocks):
    """No weight is created or destroyed by partitioning."""
    accumulated = _weighted_batch(spec)
    total = accumulated.total_weight
    batch = PromptBatchPartitioner().partition(accumulated, num_blocks)
    assert batch.total_size == total
    for key, weights in spec.items():
        placed = sum(
            sum(t.weight for t in b.fragment(key)) for b in batch.blocks
        )
        assert placed == sum(weights)
