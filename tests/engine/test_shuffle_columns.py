"""The columnar shuffle and Reduce against the pair-list form they replaced.

:func:`~repro.engine.tasks.shuffle_map_results` concatenates the Map
results' columns and groups them by bucket with one stable argsort;
:func:`~repro.engine.tasks.run_reduce_task` passes a bucket whose keys
each have one fragment through as it is, and folds any other with
``merge_all``.  The oracle below is the shuffle as it stood before —
``(key, partial)`` pairs appended bucket by bucket — followed by
``Aggregator.merge_all``, frozen here.  Partials are float sums in which
the order of addition shows (1e16 swallows a 1.0 added after it), and
split keys put several partials of one key into one bucket.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.batch import BatchInfo
from repro.core.reduce_allocator import hash_buckets
from repro.core.tuples import StreamTuple
from repro.engine.cluster import ClusterConfig
from repro.engine.tasks import (
    TaskCostModel,
    derive_task_seed,
    run_map_task,
    run_reduce_task,
    shuffle_map_results,
)
from repro.engine.topology import ClusterTopology
from repro.partitioners import HashPartitioner, ShufflePartitioner, make_partitioner
from repro.queries.base import Query, SumAggregator

FLOATS = (1e16, 1.0, -1e16, 3.0, 0.1, 0.2, -0.0, 2.5e-3)
INSTANCES = 60


def _oracle_shuffle(map_results, num_reducers, topology=None):
    """The pair-list shuffle as it stood: per bucket, one ``(key,
    partial)`` pair per fragment, its weight and its remote count."""
    fragments = [[] for _ in range(num_reducers)]
    weights = [0] * num_reducers
    remote = [0] * num_reducers
    for m in map_results:
        for key, size, j in zip(m.clusters.keys, m.clusters.sizes, m.buckets):
            fragments[j].append((key, m.partials[key]))
            weights[j] += size
            if topology is not None and not topology.is_local(m.block_index, j):
                remote[j] += 1
    return fragments, weights, remote


def _oracle_locality(map_results):
    """The first key, in shuffle order, routed to two buckets."""
    owner = {}
    for m in map_results:
        for key, j in zip(m.clusters.keys, m.buckets):
            prior = owner.setdefault(key, j)
            if prior != j:
                return f"key locality violated: {key!r} sent to buckets {prior} and {j}"
    return None


def _map_results(technique, rng, num_blocks, num_reducers):
    num_keys = rng.choice((3, 12, 60, 400))
    keys = [rng.choice((f"k{i}", i, (i % 3, f"t{i}"))) for i in range(num_keys)]
    weights = [1.0 / (i + 1) ** rng.choice((0.0, 1.2, 2.0)) for i in range(num_keys)]
    tuples = [
        StreamTuple(ts=i * 1e-4, key=key, value=rng.choice(FLOATS))
        for i, key in enumerate(rng.choices(keys, weights, k=rng.randrange(1, 1500)))
    ]
    partitioner = make_partitioner(technique)
    batch = partitioner.partition(tuples, num_blocks, BatchInfo(0, 0.0, 1.0))
    split = set(batch.split_keys)
    query = Query(name="sum", aggregator=SumAggregator())
    allocate = partitioner.reduce_allocation()
    results = [
        run_map_task(
            block, query, allocate, num_reducers, {k for k in split if k in block},
            TaskCostModel(), derive_task_seed(1, 0, "map", block.index),
        )
        for block in batch.blocks
    ]
    return results, split


@pytest.mark.parametrize("technique", ["prompt", "shuffle", "pk2", "hash"])
def test_columnar_shuffle_and_reduce_equal_the_pair_list_oracle(technique):
    rng = random.Random(sum(map(ord, technique)))
    aggregator = SumAggregator()
    split_seen = 0
    for _ in range(INSTANCES):
        num_blocks, num_reducers = rng.randrange(1, 9), rng.randrange(1, 9)
        map_results, split = _map_results(technique, rng, num_blocks, num_reducers)
        split_seen += len(split)
        topology = rng.choice(
            (None, ClusterTopology(ClusterConfig(num_nodes=rng.randrange(1, 4), cores_per_node=2)))
        )
        buckets = shuffle_map_results(map_results, num_reducers, topology)
        fragments, weights, remote = _oracle_shuffle(map_results, num_reducers, topology)
        assert [b.bucket_index for b in buckets] == list(range(num_reducers))
        for bucket, pairs, weight, far in zip(buckets, fragments, weights, remote):
            assert list(zip(bucket.keys, bucket.partials)) == pairs
            assert (bucket.weight, bucket.fragment_count, bucket.remote_fragments) == (
                weight, len(pairs), far,
            )
            got = run_reduce_task(bucket, aggregator, TaskCostModel())
            want = aggregator.merge_all(pairs)
            # same keys in the same order, bit-equal floats
            assert repr(list(got.results.items())) == repr(list(want.items()))
            assert got.key_count == len(want)
            shipped = pickle.loads(pickle.dumps(bucket))
            assert pickle.dumps(run_reduce_task(shipped, aggregator, TaskCostModel()).results) == pickle.dumps(got.results)
    if technique != "hash":
        assert split_seen > 0  # split keys put several partials in one bucket


def test_split_float_key_folds_left_to_right_in_block_order():
    """Four blocks each hold one fragment of the same key: the Reduce
    adds their partials strictly left to right, in block order."""
    partitioner = ShufflePartitioner()
    tuples = [StreamTuple(ts=i * 0.01, key="hot", value=v) for i, v in enumerate((1e16, 1.0, -1e16, 3.0))]
    batch = partitioner.partition(tuples, 4, BatchInfo(0, 0.0, 1.0))
    query = Query(name="sum", aggregator=SumAggregator())
    allocate = partitioner.reduce_allocation()
    map_results = [
        run_map_task(b, query, allocate, 2, {"hot"}, TaskCostModel()) for b in batch.blocks
    ]
    (owner,) = [b for b in shuffle_map_results(map_results, 2) if b.keys]
    assert owner.codes.tolist() == [0, 0, 0, 0]
    result = run_reduce_task(owner, SumAggregator(), TaskCostModel()).results
    partials = [m.partials["hot"] for m in map_results if "hot" in m.partials]
    acc = partials[0]
    for p in partials[1:]:
        acc = acc + p
    assert result == {"hot": acc}


class _BrokenHash(HashPartitioner):
    """Sends the first cluster of every other Map task one bucket on."""

    _calls = 0

    def reduce_allocation(self):
        def allocate(clusters, split_keys, num_buckets):
            out = hash_buckets(clusters, split_keys, num_buckets)
            self._calls += 1
            if out and self._calls % 2 == 0:
                out[0] = (out[0] + 1) % num_buckets
            return out

        return allocate


def test_key_locality_violation_raises_the_oracle_message():
    rng = random.Random(5)
    raised = 0
    for _ in range(30):
        allocate = _BrokenHash().reduce_allocation()
        tuples = [
            StreamTuple(ts=i * 1e-3, key=rng.randrange(6), value=1.0) for i in range(200)
        ]
        batch = ShufflePartitioner().partition(tuples, 4, BatchInfo(0, 0.0, 1.0))
        query = Query(name="sum", aggregator=SumAggregator())
        map_results = [
            run_map_task(b, query, allocate, 3, set(), TaskCostModel())
            for b in batch.blocks
        ]
        message = _oracle_locality(map_results)
        if message is None:
            shuffle_map_results(map_results, 3)
            continue
        raised += 1
        with pytest.raises(AssertionError) as caught:
            shuffle_map_results(map_results, 3)
        assert str(caught.value) == message
    assert raised > 0


class _StrayBucket(HashPartitioner):
    """Changes the bucket column of the third Map task: ``bucket`` for its
    second cluster, or a column ``extra`` entries longer (negative:
    shorter) than its clusters."""

    def __init__(self, bucket=None, extra=0):
        super().__init__()
        self.bucket, self.extra, self._calls = bucket, extra, 0

    def reduce_allocation(self):
        def allocate(clusters, split_keys, num_buckets):
            out = hash_buckets(clusters, split_keys, num_buckets)
            self._calls += 1
            if self._calls == 3:
                if self.bucket is not None:
                    out[1] = self.bucket
                out = out[: len(out) + self.extra] + [0] * self.extra
            return out

        return allocate


def _stray_map_results(part):
    tuples = [StreamTuple(ts=i * 1e-3, key=i % 40, value=1.0) for i in range(400)]
    batch = ShufflePartitioner().partition(tuples, 4, BatchInfo(0, 0.0, 1.0))
    query = Query(name="sum", aggregator=SumAggregator())
    allocate = part.reduce_allocation()
    return [
        run_map_task(b, query, allocate, 3, set(), TaskCostModel())
        for b in batch.blocks
    ]


@pytest.mark.parametrize("bucket", [3, 4, 40000, -1])
def test_a_bucket_outside_the_reducers_raises(bucket):
    map_results = _stray_map_results(_StrayBucket(bucket))
    stray = map_results[2]
    key = stray.clusters.keys[1]
    with pytest.raises(ValueError) as caught:
        shuffle_map_results(map_results, 3)
    assert str(caught.value) == (
        f"Map task {stray.block_index} routed key {key!r} to bucket {bucket}, "
        "outside the 3 Reduce buckets"
    )


@pytest.mark.parametrize("extra", [-1, 1])
def test_a_bucket_column_of_the_wrong_length_raises(extra):
    """Reading the column beside the task's keys would silently drop a
    too-short column's last keys, or a too-long column's extra ids."""
    map_results = _stray_map_results(_StrayBucket(extra=extra))
    stray = map_results[2]
    n = len(stray.clusters)
    assert len(stray.buckets) == n + extra
    with pytest.raises(ValueError) as caught:
        shuffle_map_results(map_results, 3)
    assert str(caught.value) == (
        f"Map task {stray.block_index} routed {n + extra} clusters "
        f"of the {n} it emitted"
    )
