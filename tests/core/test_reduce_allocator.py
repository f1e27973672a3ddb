"""Algorithm 3: split-key hashing, WorstFit with retirement, capacities."""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import hash_to_bucket
from repro.core.reduce_allocator import (
    ClusterColumns,
    KeyCluster,
    bpvc_buckets,
    hash_buckets,
)
from repro.core.tuples import _order_token


def _columns(sizes: dict) -> ClusterColumns:
    return ClusterColumns(list(sizes), list(sizes.values()))


def _allocate(sizes: dict, r: int, split_keys=(), allocation=bpvc_buckets) -> dict:
    """``{key: bucket}`` for the clusters ``sizes``, in cluster order."""
    return dict(zip(sizes, allocation(_columns(sizes), split_keys, r)))


def _loads(buckets, sizes, r: int) -> list[int]:
    """The summed cluster size routed to each of ``r`` buckets."""
    return np.bincount(buckets, weights=sizes, minlength=r).astype(int).tolist()


def _imbalance(loads) -> float:
    """Bucket-size imbalance (Eqn. 3): the largest load over the mean."""
    return max(loads) - sum(loads) / len(loads)


def test_cluster_rejects_negative_size():
    with pytest.raises(ValueError):
        KeyCluster(key="a", size=-1)


def test_allocator_rejects_zero_buckets():
    for allocation in (bpvc_buckets, hash_buckets):
        with pytest.raises(ValueError):
            allocation(_columns({"a": 1}), (), 0)


def test_empty_allocation():
    assert bpvc_buckets(_columns({}), (), 4) == []
    assert hash_buckets(_columns({}), (), 4) == []


def test_every_cluster_assigned_exactly_once():
    sizes = {f"k{i}": i + 1 for i in range(20)}
    buckets = bpvc_buckets(_columns(sizes), (), 4)
    assert len(buckets) == len(sizes)
    assert all(0 <= j < 4 for j in buckets)
    assert sum(_loads(buckets, list(sizes.values()), 4)) == sum(sizes.values())


def test_split_keys_use_hashing():
    """Split keys must land where hash_to_bucket puts them — in every task."""
    out = _allocate({"hot": 50, "a": 3, "b": 2}, 8, split_keys={"hot"})
    assert out["hot"] == hash_to_bucket("hot", 8)


def test_split_key_routing_agrees_across_map_tasks():
    """Two Map tasks holding fragments of one split key converge."""
    task_a = _allocate({"hot": 30, "x": 1}, 8, split_keys={"hot"})
    task_b = _allocate({"hot": 25, "y": 2}, 8, split_keys={"hot"})
    assert task_a["hot"] == task_b["hot"]


def test_worstfit_balances_unequal_clusters():
    sizes = [40, 30, 20, 10, 5, 5]
    buckets = bpvc_buckets(ClusterColumns([f"k{i}" for i in range(6)], sizes), (), 2)
    # total 110 -> perfect split 55; WorstFit-decreasing gets close
    assert _imbalance(_loads(buckets, sizes, 2)) <= 10


def test_retirement_balances_cluster_counts():
    """Equal-size clusters spread one-per-bucket before any bucket repeats."""
    out = _allocate({f"k{i}": 1 for i in range(8)}, 4)
    assert np.bincount(list(out.values()), minlength=4).tolist() == [2, 2, 2, 2]


def test_hot_split_bucket_is_protected():
    """A bucket eroded past its share by a hashed hot key receives no
    non-split clusters while others have room (the B-BPVC capacity)."""
    r = 4
    hot_bucket = hash_to_bucket("hot", r)
    sizes = {"hot": 100, **{f"k{i}": 5 for i in range(12)}}
    out = _allocate(sizes, r, split_keys={"hot"})
    non_split_in_hot = [k for k, b in out.items() if b == hot_bucket and k != "hot"]
    assert non_split_in_hot == []


def test_overflow_fallback_when_everything_is_full():
    """Huge split keys erode the buckets past their share: the small
    cluster still lands in one of them."""
    r = 2
    sizes = {f"hot{i}": 100 for i in range(8)}
    sizes["small"] = 1
    out = _allocate(sizes, r, split_keys={f"hot{i}" for i in range(8)})
    assert 0 <= out["small"] < r


def test_a_negative_cluster_size_raises():
    """No Map task emits a negative cluster size; one, whether split or
    not, is an error rather than a cluster left unplaced."""
    for seed in range(100):
        rng = random.Random(f"negative-{seed}")
        clusters, split, r = _instance(rng, rng.choice(VALID_FAMILIES))
        keys = [c.key for c in clusters] + ["ghost"]
        sizes = [c.size for c in clusters] + [-rng.randint(1, 50)]
        if rng.random() < 0.5:
            split.add("ghost")
        with pytest.raises(ValueError, match="cluster size must be >= 0"):
            bpvc_buckets(ClusterColumns(keys, sizes), split, r)


def test_zero_size_clusters_round_robin_for_cardinality_balance():
    """Regression: zero-size clusters carry no load signal, so WorstFit
    used to dump them all on one bucket once capacities were exhausted —
    worst-case *cardinality* imbalance for keys that still cost a reducer
    slot each.  They now round-robin: BCI (bucket cardinality imbalance,
    the second metric Algorithm 3 balances) stays zero."""
    r = 4
    out = _allocate({f"z{i}": 0 for i in range(8)}, r)
    counts = np.bincount(list(out.values()), minlength=r).tolist()
    mean = sum(counts) / r
    assert max(counts) - mean == 0  # BCI == 0: perfectly even counts
    assert counts == [2, 2, 2, 2]


def test_zero_size_clusters_mixed_with_sized_ones():
    r = 3
    sizes = {f"k{i}": 6 for i in range(3)}
    sizes.update({f"z{i}": 0 for i in range(6)})
    out = _allocate(sizes, r)
    assert list(out) == list(sizes)
    assert sum(_loads(list(out.values()), list(sizes.values()), r)) == 18
    counts = np.bincount(list(out.values()), minlength=r).tolist()
    # 1 sized + 2 zero-size clusters per bucket: BCI == 0
    assert max(counts) - sum(counts) / r == 0


def test_zero_size_round_robin_is_deterministic():
    sizes = {f"z{i}": 0 for i in range(7)}
    sizes["big"] = 10
    assert _allocate(sizes, 3) == _allocate(sizes, 3)


def test_hash_allocate_matches_hash_function():
    sizes = {"a": 5, "b": 3}
    out = _allocate(sizes, 4, allocation=hash_buckets)
    assert out == {k: hash_to_bucket(k, 4) for k in sizes}


def test_deterministic_across_runs():
    sizes = {f"k{i}": (i * 13) % 7 + 1 for i in range(30)}
    a = _allocate(sizes, 5, split_keys={"k3", "k7"})
    b = _allocate(sizes, 5, split_keys={"k3", "k7"})
    assert a == b


@given(
    sizes=st.lists(st.integers(1, 50), min_size=1, max_size=60),
    num_buckets=st.integers(1, 8),
    split_count=st.integers(0, 10),
)
@settings(max_examples=80, deadline=None)
def test_property_allocation_is_total_and_conserving(sizes, num_buckets, split_count):
    keys = [f"k{i}" for i in range(len(sizes))]
    split = set(keys[:split_count])
    buckets = bpvc_buckets(ClusterColumns(keys, sizes), split, num_buckets)
    assert len(buckets) == len(keys)
    assert all(0 <= b < num_buckets for b in buckets)
    assert sum(_loads(buckets, sizes, num_buckets)) == sum(sizes)


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
    clusters = ClusterColumns([f"k{i}" for i in range(len(sizes))], sizes)
    ours = _imbalance(_loads(bpvc_buckets(clusters, (), num_buckets), sizes, num_buckets))
    hashed = _imbalance(_loads(hash_buckets(clusters, (), num_buckets), sizes, num_buckets))
    assert ours <= hashed + max(sizes) + 1e-9
    # and in absolute terms the LPT-like bound holds
    assert ours <= max(sizes) + 1e-9


def test_known_retirement_tradeoff_example():
    """The concrete case where retirement loses a little size balance:
    sizes [5,2,2,2,2,2] on 2 buckets -> loads [9, 6] (imbalance 1.5)
    while unrestricted WorstFit would reach [7, 8]."""
    sizes = [5, 2, 2, 2, 2, 2]
    buckets = bpvc_buckets(ClusterColumns([f"k{i}" for i in range(6)], sizes), (), 2)
    assert sorted(_loads(buckets, sizes, 2)) == [6, 9]
    # ...but cluster counts are perfectly even
    assert np.bincount(buckets, minlength=2).tolist() == [3, 3]


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
    the oracle; do not "tidy" it.  (The counters are the one addition,
    so the suite can prove which branches each family reaches.)"""
    reached = {"hashed": 0, "zeros": 0, "overflow": 0}
    assignment: dict = {}
    bucket_loads = [0] * r
    total = sum(c.size for c in clusters)
    non_split = []
    for cluster in clusters:
        if cluster.key in split_keys:
            bucket = hash_to_bucket(cluster.key, r)
            assignment[cluster.key] = bucket
            bucket_loads[bucket] += cluster.size
            reached["hashed"] += 1
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
            reached["overflow"] += 1
        else:
            best = min(candidates, key=lambda j: (-capacity(j), j))
            candidates.remove(best)
        assignment[cluster.key] = best
        bucket_loads[best] += cluster.size
    for i, cluster in enumerate(zero_sized):
        assignment[cluster.key] = i % r
        reached["zeros"] += 1
    return assignment, bucket_loads, reached


def _keys(rng, n, family):
    if family == "mixed-keys":
        # ints, strs and tuples together: the type-prefixed token path
        pool = [i for i in range(n)] + [f"k{i}" for i in range(n)]
        pool += [(i, "t") for i in range(n)]
        return rng.sample(pool, n)
    keys = [f"k{i}" for i in range(n)]
    rng.shuffle(keys)
    return keys


def _instance(rng, family):
    """``(clusters, split_keys, r)`` for one family."""
    r = 1 if family == "one-bucket" else rng.randint(1, 12)
    n = rng.randint(0, 80)
    keys = _keys(rng, n, family)
    if family in ("unit", "split-unit", "mixed-keys"):
        sizes = [1] * n  # what every map-side-combining query emits
    elif family == "small":
        sizes = [rng.randint(1, 5) for _ in range(n)]
    elif family == "steps":
        # a few long runs of equal sizes, rounds ending part-way through
        sizes = [rng.choice((1, 2, 3, 7)) for _ in range(n)]
    elif family == "zeros":
        sizes = [rng.choice((0, 0, 1, 3)) for _ in range(n)]
    else:
        sizes = [int(rng.paretovariate(0.9)) for _ in range(n)]
    clusters = [KeyCluster(key=k, size=s) for k, s in zip(keys, sizes)]
    split = set()
    if family != "unit":
        split = set(rng.sample(keys, min(n, rng.randint(0, 6))))
    if family == "hot-split":
        # a hashed key far past the equal share: its bucket starts as
        # the fullest and must sit every round out
        clusters.append(KeyCluster(key="hot", size=10 * (sum(sizes) + 1)))
        split.add("hot")
    if family == "overflow":
        # Valid clusters cannot fill every bucket while one still waits
        # (placed load < total <= r * expected).  The oracle's tail is
        # reachable only through a negative-size cluster, which it
        # counts into ``total`` and then drops: it drags ``expected``
        # under the loads the first round builds.
        clusters = [_RawCluster(c.key, c.size) for c in clusters]
        clusters.append(_RawCluster("ghost", -rng.randint(1, sum(sizes) + 1)))
    rng.shuffle(clusters)
    return clusters, split, r


VALID_FAMILIES = (
    "unit", "split-unit", "mixed-keys", "small", "steps", "skewed",
    "hot-split", "zeros", "one-bucket",
)
FAMILIES = VALID_FAMILIES + ("overflow",)

#: the branch each family must reach (beyond WorstFit, which all do)
MUST_REACH = {"split-unit": "hashed", "hot-split": "hashed", "zeros": "zeros"}


@pytest.mark.parametrize("family", FAMILIES)
def test_sort_once_rounds_match_frozen_per_cluster_worstfit(family):
    """600 seeded instances per family: every cluster gets the oracle's
    bucket, and every bucket the oracle's load.  The oracle's overflow
    pick (every bucket at its share while a cluster waits) is never
    reached by a valid family: no valid instance can fill every bucket
    first.  The ``overflow`` family reaches it only through a
    negative-size ghost, which ``bpvc_buckets`` rejects; without the
    ghost the instance matches the oracle."""
    reached = {"hashed": 0, "zeros": 0, "overflow": 0}
    for seed in range(600):
        rng = random.Random(f"{family}-{seed}")
        clusters, split, r = _instance(rng, family)
        want, want_loads, hit = _frozen_per_cluster_worstfit(clusters, split, r)
        for branch, count in hit.items():
            reached[branch] += count
        if family == "overflow":
            keys = [c.key for c in clusters]
            with pytest.raises(ValueError, match="cluster size must be >= 0"):
                bpvc_buckets(ClusterColumns(keys, [c.size for c in clusters]), split, r)
            clusters = [c for c in clusters if c.size >= 0]
            want, want_loads, _ = _frozen_per_cluster_worstfit(clusters, split, r)
        sizes = [c.size for c in clusters]
        keys = [c.key for c in clusters]
        buckets = bpvc_buckets(ClusterColumns(keys, sizes), split, r)
        assert dict(zip(keys, buckets)) == want, (family, seed)
        assert len(buckets) == len(keys), (family, seed)
        assert _loads(buckets, sizes, r) == want_loads, (family, seed)
    # the tail family must actually run the tail; no valid family can
    assert (reached["overflow"] > 1000) == (family == "overflow")
    if family in MUST_REACH:
        assert reached[MUST_REACH[family]] > 0, reached
