"""Property suite: Algorithm 3 on cluster columns vs the object form it replaced.

:func:`~repro.core.reduce_allocator.bpvc_buckets` reads a Map task's
clusters as two aligned columns (keys, sizes) and returns one bucket id
per cluster; it builds no ``KeyCluster``.  Over seeded random instances
it must give every key the bucket, and every bucket the load, that
``ReduceBucketAllocator.allocate`` gave when it walked ``KeyCluster``
objects one at a time — frozen below as it stood.  The families reach
every branch: hashed split keys, WorstFit rounds (equal-size runs and
mixed sizes), the heap-overflow tail and round-robin zero-size clusters.

Note that the ``synd_flat_wc`` benchmark row has
no split keys, so the benchmark never exercises the split branch; this
suite does.
"""

from __future__ import annotations

import heapq
import random
from typing import NamedTuple

import pytest

from repro.core.hashing import hash_to_bucket
from repro.core.reduce_allocator import (
    ClusterColumns,
    KeyCluster,
    ReduceBucketAllocator,
    bpvc_buckets,
    hash_allocate,
    hash_buckets,
)
from repro.core.tuples import _order_tokens

INSTANCES_PER_FAMILY = 300


class _RawCluster(NamedTuple):
    """A cluster without ``KeyCluster``'s size check (overflow family)."""

    key: object
    size: int


def _frozen_object_allocate(clusters, split_keys, r):
    """``ReduceBucketAllocator.allocate`` over ``KeyCluster`` objects, as
    it stood before the column form.  Frozen as the oracle; do not
    "tidy" it.  Also counts which branches the instance reached."""
    reached = {"hashed": 0, "rounds": 0, "overflow": 0, "zeros": 0}
    assignment: dict = {}
    loads = [0] * r
    total = sum(c.size for c in clusters)
    non_split = []
    for cluster in clusters:
        if cluster.key in split_keys:
            bucket = hash_to_bucket(cluster.key, r)
            assignment[cluster.key] = bucket
            loads[bucket] += cluster.size
            reached["hashed"] += 1
        else:
            non_split.append(cluster)
    tokens = _order_tokens([c.key for c in non_split])
    sizes = [c.size for c in non_split]
    order = sorted(range(len(non_split)), key=tokens.__getitem__)
    order.sort(key=sizes.__getitem__, reverse=True)
    non_split = [non_split[i] for i in order]
    zero_sized = [c for c in non_split if c.size == 0]
    non_split = [c for c in non_split if c.size > 0]
    expected = -(-total // r) if total else 0
    dealt = 0
    while dealt < len(non_split):
        open_buckets = sorted(
            [j for j in range(r) if loads[j] < expected], key=loads.__getitem__
        )
        if not open_buckets:
            break
        reached["rounds"] += 1
        for j, cluster in zip(
            open_buckets, non_split[dealt : dealt + len(open_buckets)]
        ):
            assignment[cluster.key] = j
            loads[j] += cluster.size
        dealt += len(open_buckets)
    if dealt < len(non_split):
        heap = [(loads[j], j) for j in range(r)]
        heapq.heapify(heap)
        for cluster in non_split[dealt:]:
            load, j = heap[0]
            assignment[cluster.key] = j
            loads[j] = load + cluster.size
            heapq.heapreplace(heap, (loads[j], j))
            reached["overflow"] += 1
    for i, cluster in enumerate(zero_sized):
        assignment[cluster.key] = i % r
        reached["zeros"] += 1
    return assignment, loads, reached


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
    r = rng.randint(1, 12)
    n = rng.randint(0, 80)
    keys = _keys(rng, n, family)
    if family in ("unit", "split-unit", "mixed-keys"):
        sizes = [1] * n  # what every map-side-combining query emits
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
        clusters.append(KeyCluster(key="hot", size=10 * (sum(sizes) + 1)))
        split.add("hot")
    if family == "overflow":
        # Valid clusters never fill every bucket while one still waits;
        # only a negative size (counted into the total) reaches the tail.
        clusters = [_RawCluster(c.key, c.size) for c in clusters]
        clusters.append(_RawCluster("ghost", -rng.randint(1, sum(sizes) + 1)))
    rng.shuffle(clusters)
    return clusters, split, r


FAMILIES = (
    "unit", "split-unit", "mixed-keys", "steps", "skewed", "hot-split",
    "zeros", "overflow",
)

#: the branch each family must reach (beyond WorstFit rounds, which all do)
MUST_REACH = {
    "split-unit": "hashed",
    "hot-split": "hashed",
    "zeros": "zeros",
    "overflow": "overflow",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_column_form_matches_frozen_object_form(family):
    reached = {"hashed": 0, "rounds": 0, "overflow": 0, "zeros": 0}
    for seed in range(INSTANCES_PER_FAMILY):
        rng = random.Random(f"columns-{family}-{seed}")
        clusters, split, r = _instance(rng, family)
        want, want_loads, hit = _frozen_object_allocate(clusters, split, r)
        for branch, count in hit.items():
            reached[branch] += count
        keys = [c.key for c in clusters]
        buckets, loads = bpvc_buckets(keys, [c.size for c in clusters], split, r)
        where = (family, seed)
        assert len(buckets) == len(keys), where
        assert loads == want_loads, where
        # both forms leave the negative-size ghost unplaced (bucket -1)
        placed = [(k, j) for k, j in zip(keys, buckets) if j >= 0]
        assert len(placed) == len(keys) - (family == "overflow"), where
        assert dict(placed) == want, where
        # the object entry point is the column form, keys in cluster order
        out = ReduceBucketAllocator(r).allocate(clusters, split)
        assert list(out.assignment.items()) == placed, where
        assert out.bucket_loads == loads, where
    assert reached["rounds"] > 0
    if family in MUST_REACH:
        assert reached[MUST_REACH[family]] > 0, reached
    if family != "overflow":
        assert reached["overflow"] == 0  # unreachable with valid sizes


def test_hash_column_form_matches_per_cluster_hashing():
    for seed in range(200):
        rng = random.Random(f"hash-{seed}")
        r = rng.randint(1, 12)
        keys = _keys(rng, rng.randint(0, 60), "mixed-keys")
        sizes = [rng.randint(0, 9) for _ in keys]
        buckets, loads = hash_buckets(keys, sizes, r)
        assert buckets == [hash_to_bucket(k, r) for k in keys]
        want_loads = [0] * r
        for key, size in zip(keys, sizes):
            want_loads[hash_to_bucket(key, r)] += size
        assert loads == want_loads
        clusters = [KeyCluster(k, s) for k, s in zip(keys, sizes)]
        assert hash_allocate(clusters, r) == hash_allocate(
            ClusterColumns(keys, sizes), r
        )


def test_columns_iterate_as_key_clusters_and_are_read_in_place():
    columns = ClusterColumns(["a", "b"], [1, 3])
    assert list(columns) == [KeyCluster("a", 1), KeyCluster("b", 3)]
    assert len(columns) == 2
    assert ClusterColumns.of(columns) is columns
    assert ClusterColumns.of(iter(columns)) == columns
    assert columns != list(columns)  # columns compare only with columns


def test_column_form_rejects_zero_buckets():
    with pytest.raises(ValueError):
        bpvc_buckets(["a"], [1], (), 0)
    with pytest.raises(ValueError):
        hash_buckets(["a"], [1], 0)
