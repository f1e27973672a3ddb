"""The packaged Prompt scheme: buffering + Alg 2 + Alg 3 + ablations."""

from __future__ import annotations

import pytest

from repro.core.batch import BatchInfo
from repro.core.metrics import evaluate_partition
from repro.core.reduce_allocator import ClusterColumns, bpvc_buckets
from repro.core.tuples import StreamTuple
from repro.partitioners import PromptPartitioner

from ..conftest import make_tuples, zipfish_freqs

INFO = BatchInfo(0, 0.0, 1.0)


def test_partition_places_all_tuples():
    part = PromptPartitioner()
    tuples = make_tuples(zipfish_freqs(30, 600), shuffle_seed=1)
    batch = part.partition(tuples, 4, INFO)
    batch.validate(expected_tuples=len(tuples))
    assert batch.partitioner_name == "prompt"


def test_partition_records_elapsed_time():
    part = PromptPartitioner()
    batch = part.partition(make_tuples({"a": 10}), 2, INFO)
    assert batch.partition_elapsed > 0


def test_last_batch_exposes_accumulator_stats():
    part = PromptPartitioner()
    tuples = make_tuples(zipfish_freqs(10, 100), shuffle_seed=2)
    part.partition(tuples, 2, INFO)
    assert part.last_batch is not None
    assert part.last_batch.tuple_count == len(tuples)
    assert part.last_batch.key_count == 10


def test_post_sort_variant_produces_same_quality():
    tuples = make_tuples(zipfish_freqs(40, 800), shuffle_seed=3)
    normal = PromptPartitioner(exact_updates=True).partition(tuples, 4, INFO)
    postsort = PromptPartitioner(post_sort=True).partition(tuples, 4, INFO)
    q_n = evaluate_partition(normal)
    q_p = evaluate_partition(postsort)
    # exact-update buffering and post-sort see identically-sorted input
    assert q_p.bsi == pytest.approx(q_n.bsi, abs=2)
    assert q_p.ksr == pytest.approx(q_n.ksr, abs=0.05)
    assert postsort.partitioner_name == "prompt-postsort"


@pytest.mark.parametrize(
    "kwargs",
    [{"exact_updates": True}, {"stats": "sketch"}],
    ids=["exact_updates", "sketch"],
)
def test_post_sort_rejects_statistics_settings(kwargs):
    """Post-sort keeps no statistics, so a setting for them is an error,
    not silently ignored."""
    with pytest.raises(ValueError, match="post_sort"):
        PromptPartitioner(post_sort=True, **kwargs)


def test_post_sort_charges_the_sort_to_the_plan():
    """The exact sort runs at the heartbeat: nothing is buffering time."""
    part = PromptPartitioner(post_sort=True)
    batch = part.partition(make_tuples(zipfish_freqs(30, 300), shuffle_seed=6), 4, INFO)
    assert part.accumulator is None
    assert batch.buffer_elapsed == 0.0
    assert batch.plan_elapsed > 0.0
    assert part.last_batch.tree_updates == 0
    counts = part.last_batch.counts.tolist()
    assert counts == sorted(counts, reverse=True)


def test_post_sort_pays_heartbeat_overhead():
    tuples = make_tuples({f"k{i}": 2 for i in range(200)}, shuffle_seed=4)
    fast = PromptPartitioner()
    slow = PromptPartitioner(post_sort=True)
    fast_batch = fast.partition(tuples, 4, INFO)
    slow_batch = slow.partition(tuples, 4, INFO)
    assert fast.heartbeat_overhead(fast_batch) == 0.0
    assert slow.heartbeat_overhead(slow_batch) > 0.0


def test_heartbeat_overhead_zero_for_empty_batch():
    part = PromptPartitioner(post_sort=True)
    batch = part.partition([], 2, INFO)
    assert part.heartbeat_overhead(batch) == 0.0


def test_allocate_reduce_uses_algorithm3():
    allocate = PromptPartitioner().reduce_allocation()
    assert allocate is bpvc_buckets
    clusters = ClusterColumns([f"k{i}" for i in range(8)], [10 - i for i in range(8)])
    counts = [0] * 4
    for b in allocate(clusters, set(), 4):
        counts[b] += 1
    assert counts == [2, 2, 2, 2]  # retirement: even cluster counts


def test_reset_clears_last_batch():
    part = PromptPartitioner()
    part.partition(make_tuples({"a": 3}), 2, INFO)
    part.reset()
    assert part.last_batch is None


def test_uses_accumulator_flag():
    assert PromptPartitioner.uses_accumulator is True


def test_consecutive_batches_are_independent():
    part = PromptPartitioner()
    b1 = part.partition(make_tuples({"a": 10}), 2, INFO)
    info2 = BatchInfo(1, 1.0, 2.0)
    b2 = part.partition(make_tuples({"b": 4}, start=1.0), 2, info2)
    assert b1.distinct_keys() == {"a"}
    assert b2.distinct_keys() == {"b"}
