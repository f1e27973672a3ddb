"""Algorithm 3: split-key hashing, WorstFit with retirement, capacities."""

from __future__ import annotations

import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import hash_to_bucket
from repro.core.reduce_allocator import (
    BucketAssignment,
    KeyCluster,
    ReduceBucketAllocator,
    hash_allocate,
)
from repro.core.tuples import _order_token


def _clusters(sizes: dict) -> list[KeyCluster]:
    return [KeyCluster(key=k, size=s) for k, s in sizes.items()]


def test_cluster_rejects_negative_size():
    with pytest.raises(ValueError):
        KeyCluster(key="a", size=-1)


def test_allocator_rejects_zero_buckets():
    with pytest.raises(ValueError):
        ReduceBucketAllocator(0)


def test_empty_allocation():
    out = ReduceBucketAllocator(4).allocate([])
    assert out.assignment == {}
    assert out.bucket_loads == [0, 0, 0, 0]
    assert out.max_load == 0
    assert out.imbalance == 0.0


def test_every_cluster_assigned_exactly_once():
    clusters = _clusters({f"k{i}": i + 1 for i in range(20)})
    out = ReduceBucketAllocator(4).allocate(clusters)
    assert set(out.assignment) == {c.key for c in clusters}
    assert sum(out.bucket_loads) == sum(c.size for c in clusters)


def test_split_keys_use_hashing():
    """Split keys must land where hash_to_bucket puts them — in every task."""
    clusters = _clusters({"hot": 50, "a": 3, "b": 2})
    out = ReduceBucketAllocator(8).allocate(clusters, split_keys={"hot"})
    assert out.assignment["hot"] == hash_to_bucket("hot", 8)


def test_split_key_routing_agrees_across_map_tasks():
    """Two Map tasks holding fragments of one split key converge."""
    task_a = ReduceBucketAllocator(8).allocate(
        _clusters({"hot": 30, "x": 1}), split_keys={"hot"}
    )
    task_b = ReduceBucketAllocator(8).allocate(
        _clusters({"hot": 25, "y": 2}), split_keys={"hot"}
    )
    assert task_a.assignment["hot"] == task_b.assignment["hot"]


def test_worstfit_balances_unequal_clusters():
    clusters = _clusters({f"k{i}": size for i, size in enumerate([40, 30, 20, 10, 5, 5])})
    out = ReduceBucketAllocator(2).allocate(clusters)
    # total 110 -> perfect split 55; WorstFit-decreasing gets close
    assert out.imbalance <= 10


def test_retirement_balances_cluster_counts():
    """Equal-size clusters spread one-per-bucket before any bucket repeats."""
    clusters = _clusters({f"k{i}": 1 for i in range(8)})
    out = ReduceBucketAllocator(4).allocate(clusters)
    counts = [0] * 4
    for bucket in out.assignment.values():
        counts[bucket] += 1
    assert counts == [2, 2, 2, 2]


def test_hot_split_bucket_is_protected():
    """A bucket eroded past its share by a hashed hot key receives no
    non-split clusters while others have room (the B-BPVC capacity)."""
    r = 4
    hot_bucket = hash_to_bucket("hot", r)
    clusters = _clusters({"hot": 100}) + _clusters({f"k{i}": 5 for i in range(12)})
    out = ReduceBucketAllocator(r).allocate(clusters, split_keys={"hot"})
    non_split_in_hot = [
        k for k, b in out.assignment.items() if b == hot_bucket and k != "hot"
    ]
    assert non_split_in_hot == []


def test_overflow_fallback_when_everything_is_full():
    """If split keys erode every bucket past its share, clusters still land."""
    r = 2
    # both buckets get huge split keys
    split = {}
    sizes = {}
    for i in range(8):
        key = f"hot{i}"
        sizes[key] = 100
        split[key] = None
    sizes["small"] = 1
    out = ReduceBucketAllocator(r).allocate(_clusters(sizes), split_keys=set(split))
    assert "small" in out.assignment


def test_zero_size_clusters_round_robin_for_cardinality_balance():
    """Regression: zero-size clusters carry no load signal, so WorstFit
    used to dump them all on one bucket once capacities were exhausted —
    worst-case *cardinality* imbalance for keys that still cost a reducer
    slot each.  They now round-robin: BCI (bucket cardinality imbalance,
    the second metric Algorithm 3 balances) stays zero."""
    r = 4
    out = ReduceBucketAllocator(r).allocate(_clusters({f"z{i}": 0 for i in range(8)}))
    counts = [0] * r
    for bucket in out.assignment.values():
        counts[bucket] += 1
    mean = sum(counts) / r
    assert max(counts) - mean == 0  # BCI == 0: perfectly even counts
    assert counts == [2, 2, 2, 2]
    assert out.bucket_loads == [0, 0, 0, 0]


def test_zero_size_clusters_mixed_with_sized_ones():
    r = 3
    sizes = {f"k{i}": 6 for i in range(3)}
    sizes.update({f"z{i}": 0 for i in range(6)})
    out = ReduceBucketAllocator(r).allocate(_clusters(sizes))
    assert set(out.assignment) == set(sizes)
    assert sum(out.bucket_loads) == 18
    counts = [0] * r
    for bucket in out.assignment.values():
        counts[bucket] += 1
    # 1 sized + 2 zero-size clusters per bucket: BCI == 0
    assert max(counts) - sum(counts) / r == 0


def test_zero_size_round_robin_is_deterministic():
    sizes = {f"z{i}": 0 for i in range(7)}
    sizes["big"] = 10
    a = ReduceBucketAllocator(3).allocate(_clusters(sizes))
    b = ReduceBucketAllocator(3).allocate(_clusters(sizes))
    assert a.assignment == b.assignment


def test_hash_allocate_matches_hash_function():
    clusters = _clusters({"a": 5, "b": 3})
    out = hash_allocate(clusters, 4)
    for c in clusters:
        assert out.assignment[c.key] == hash_to_bucket(c.key, 4)
    assert sum(out.bucket_loads) == 8


def test_deterministic_across_runs():
    clusters = _clusters({f"k{i}": (i * 13) % 7 + 1 for i in range(30)})
    a = ReduceBucketAllocator(5).allocate(clusters, split_keys={"k3", "k7"})
    b = ReduceBucketAllocator(5).allocate(clusters, split_keys={"k3", "k7"})
    assert a.assignment == b.assignment


def test_bucket_assignment_properties():
    out = BucketAssignment(num_buckets=3, bucket_loads=[5, 10, 3])
    assert out.load_of(1) == 10
    assert out.max_load == 10
    assert out.imbalance == pytest.approx(10 - 6)


@given(
    sizes=st.lists(st.integers(1, 50), min_size=1, max_size=60),
    num_buckets=st.integers(1, 8),
    split_count=st.integers(0, 10),
)
@settings(max_examples=80, deadline=None)
def test_property_allocation_is_total_and_conserving(sizes, num_buckets, split_count):
    clusters = [KeyCluster(key=f"k{i}", size=s) for i, s in enumerate(sizes)]
    split = {f"k{i}" for i in range(min(split_count, len(sizes)))}
    out = ReduceBucketAllocator(num_buckets).allocate(clusters, split_keys=split)
    assert set(out.assignment) == {c.key for c in clusters}
    assert all(0 <= b < num_buckets for b in out.assignment.values())
    assert sum(out.bucket_loads) == sum(sizes)


@given(
    sizes=st.lists(st.integers(1, 10), min_size=4, max_size=80),
    num_buckets=st.integers(2, 8),
)
@settings(max_examples=60, deadline=None)
def test_property_never_loses_to_hashing_by_more_than_one_cluster(sizes, num_buckets):
    """Algorithm 3 vs plain hashing, no split keys.

    The retirement rule deliberately trades a little size balance for
    cluster-count balance ("promoting a balanced number of key clusters
    per Reduce bucket", Section 5): a bucket can be forced to take one
    cluster per cycle even when a peer has more room.  That trade is
    bounded by a single cluster — WorstFit-with-retirement behaves like
    LPT over cycles — whereas hashing's imbalance is unbounded.
    """
    clusters = [KeyCluster(key=f"k{i}", size=s) for i, s in enumerate(sizes)]
    ours = ReduceBucketAllocator(num_buckets).allocate(clusters)
    hashed = hash_allocate(clusters, num_buckets)
    assert ours.imbalance <= hashed.imbalance + max(sizes) + 1e-9
    # and in absolute terms the LPT-like bound holds
    assert ours.imbalance <= max(sizes) + 1e-9


def test_known_retirement_tradeoff_example():
    """The concrete case where retirement loses a little size balance:
    sizes [5,2,2,2,2,2] on 2 buckets -> loads [9, 6] (imbalance 1.5)
    while unrestricted WorstFit would reach [7, 8]."""
    clusters = [KeyCluster(key=f"k{i}", size=s) for i, s in enumerate([5, 2, 2, 2, 2, 2])]
    out = ReduceBucketAllocator(2).allocate(clusters)
    assert sorted(out.bucket_loads) == [6, 9]
    counts = [0, 0]
    for b in out.assignment.values():
        counts[b] += 1
    assert counts == [3, 3]  # ...but cluster counts are perfectly even


# ----------------------------------------------------------------------
# differential: sort-once rounds vs the per-cluster WorstFit they replaced
class _RawCluster(NamedTuple):
    """A cluster without ``KeyCluster``'s size validation (see the
    overflow family below)."""

    key: str
    size: int


def _frozen_per_cluster_worstfit(clusters, split_keys, r):
    """Algorithm 3 exactly as it stood before the sort-once rewrite: one
    ``min`` over the live candidate list per cluster.  Frozen here as
    the oracle; do not "tidy" it.  (The overflow-pick counter is the one
    addition, so the suite can prove the tail family reaches the tail.)"""
    overflow_picks = 0
    assignment: dict = {}
    bucket_loads = [0] * r
    total = sum(c.size for c in clusters)
    non_split = []
    for cluster in clusters:
        if cluster.key in split_keys:
            bucket = hash_to_bucket(cluster.key, r)
            assignment[cluster.key] = bucket
            bucket_loads[bucket] += cluster.size
        else:
            non_split.append(cluster)
    non_split.sort(key=lambda c: (-c.size, _order_token(c.key)))
    zero_sized = [c for c in non_split if c.size == 0]
    non_split = [c for c in non_split if c.size > 0]
    expected = -(-total // r) if total else 0

    def capacity(j):
        return expected - bucket_loads[j]

    candidates = [j for j in range(r) if capacity(j) > 0]
    for cluster in non_split:
        if not candidates:
            candidates = [j for j in range(r) if capacity(j) > 0]
        if not candidates:
            best = min(range(r), key=lambda j: (bucket_loads[j], j))
            overflow_picks += 1
        else:
            best = min(candidates, key=lambda j: (-capacity(j), j))
            candidates.remove(best)
        assignment[cluster.key] = best
        bucket_loads[best] += cluster.size
    for i, cluster in enumerate(zero_sized):
        assignment[cluster.key] = i % r
    return assignment, bucket_loads, overflow_picks


def _random_instance(rng, family):
    """``(clusters, split_keys, r)`` for one family."""
    r = 1 if family == "one-bucket" else rng.randint(1, 12)
    n = rng.randint(0, 60)
    if family == "unit":
        sizes = [1] * n
    elif family == "small":
        sizes = [rng.randint(1, 5) for _ in range(n)]
    elif family == "zeros":
        sizes = [rng.choice((0, 0, 1, 3)) for _ in range(n)]
    else:
        sizes = [int(rng.paretovariate(0.9)) for _ in range(n)]
    keys = [f"k{i}" for i in range(n)]
    rng.shuffle(keys)
    clusters = [KeyCluster(key=k, size=s) for k, s in zip(keys, sizes)]
    split = set(rng.sample(keys, min(n, rng.randint(0, 5))))
    if family == "hot-split":
        # a hashed key far past the equal share: its bucket starts as
        # the fullest and must sit every round out
        clusters.append(KeyCluster(key="hot", size=10 * (sum(sizes) + 1)))
        split.add("hot")
    if family == "overflow":
        # Valid clusters cannot fill every bucket while one still waits
        # (placed load < total <= r * expected).  The tail is reachable
        # only through a negative-size cluster, which both versions
        # count into ``total`` and then drop: it drags ``expected``
        # under the loads the first round builds.
        clusters = [_RawCluster(c.key, c.size) for c in clusters]
        clusters.append(_RawCluster("ghost", -rng.randint(0, sum(sizes))))
    rng.shuffle(clusters)
    return clusters, split, r


_FAMILIES = (
    "unit", "small", "zeros", "skewed", "hot-split", "one-bucket", "overflow"
)


@pytest.mark.parametrize("family", _FAMILIES)
def test_sort_once_rounds_match_frozen_per_cluster_worstfit(family):
    """>= 2000 seeded instances in all: identical ``assignment`` and
    ``bucket_loads``.  (The assignment lists keys in cluster order; the
    frozen version listed them in placement order.)"""
    overflow_picks = 0
    for seed in range(300):
        rng = random.Random(f"{family}-{seed}")
        clusters, split, r = _random_instance(rng, family)
        want_assignment, want_loads, picks = _frozen_per_cluster_worstfit(
            clusters, split, r
        )
        got = ReduceBucketAllocator(r).allocate(clusters, split)
        assert got.assignment == want_assignment, (family, seed)
        assert list(got.assignment) == [
            c.key for c in clusters if c.key in want_assignment
        ]
        assert got.bucket_loads == want_loads, (family, seed)
        overflow_picks += picks
    # the tail family must actually run the tail; no valid family can
    assert (overflow_picks > 1000) == (family == "overflow")
