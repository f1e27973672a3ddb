"""Property suite: Algorithm 3 on cluster columns vs the object form it replaced.

:func:`~repro.core.reduce_allocator.bpvc_buckets` reads a Map task's
clusters as a :class:`~repro.core.reduce_allocator.ClusterColumns`
(keys, sizes) and returns one bucket id per cluster; it builds no
``KeyCluster``.  Over seeded random instances it must give every key
the bucket, and every bucket the load, that the allocator gave when it
walked ``KeyCluster`` objects one at a time — frozen below as it stood.
The families reach every branch: hashed split keys, WorstFit rounds
(equal-size runs and mixed sizes), the frozen form's heap-overflow tail
and round-robin zero-size clusters.

Note that the ``synd_flat_wc`` benchmark row has
no split keys, so the benchmark never exercises the split branch; this
suite does.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.core.hashing import hash_to_bucket
from repro.core.reduce_allocator import (
    ClusterColumns,
    KeyCluster,
    bpvc_buckets,
    hash_buckets,
)
from repro.core.tuples import _order_tokens

from .test_reduce_allocator import _instance, _loads

INSTANCES_PER_FAMILY = 300


def _frozen_object_allocate(clusters, split_keys, r):
    """The allocator over ``KeyCluster`` objects, as it stood before the
    column form.  Frozen as the oracle; do not "tidy" it.  Also counts
    which branches the instance reached."""
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
    """Every family matches the frozen form bucket for bucket.  The
    ``overflow`` family's negative-size ghost, which the frozen form
    left unplaced while its heap tail placed the rest, is rejected by the
    column form with ``ValueError``; the same instance without the ghost
    matches the frozen form."""
    reached = {"hashed": 0, "rounds": 0, "overflow": 0, "zeros": 0}
    for seed in range(INSTANCES_PER_FAMILY):
        rng = random.Random(f"columns-{family}-{seed}")
        clusters, split, r = _instance(rng, family)
        want, want_loads, hit = _frozen_object_allocate(clusters, split, r)
        for branch, count in hit.items():
            reached[branch] += count
        where = (family, seed)
        keys = [c.key for c in clusters]
        sizes = [c.size for c in clusters]
        if family == "overflow":
            with pytest.raises(ValueError, match="cluster size must be >= 0"):
                bpvc_buckets(ClusterColumns(keys, sizes), split, r)
            clusters = [c for c in clusters if c.size >= 0]
            want, want_loads, _ = _frozen_object_allocate(clusters, split, r)
            keys = [c.key for c in clusters]
            sizes = [c.size for c in clusters]
        buckets = bpvc_buckets(ClusterColumns(keys, sizes), split, r)
        assert len(buckets) == len(keys), where
        assert all(0 <= j < r for j in buckets), where
        assert _loads(buckets, sizes, r) == want_loads, where
        assert dict(zip(keys, buckets)) == want, where
    assert reached["rounds"] > 0
    if family in MUST_REACH:
        assert reached[MUST_REACH[family]] > 0, reached
    if family != "overflow":
        assert reached["overflow"] == 0  # unreachable with valid sizes


def _keys(rng, n):
    """``n`` distinct ints, strs and tuples together."""
    pool = [i for i in range(n)] + [f"k{i}" for i in range(n)]
    pool += [(i, "t") for i in range(n)]
    return rng.sample(pool, n)


def test_hash_column_form_matches_per_cluster_hashing():
    for seed in range(200):
        rng = random.Random(f"hash-{seed}")
        r = rng.randint(1, 12)
        keys = _keys(rng, rng.randint(0, 60))
        sizes = [rng.randint(0, 9) for _ in keys]
        split = set(rng.sample(keys, min(len(keys), 3)))
        buckets = hash_buckets(ClusterColumns(keys, sizes), split, r)
        assert buckets == [hash_to_bucket(k, r) for k in keys]


def test_columns_iterate_as_key_clusters_and_are_read_in_place():
    columns = ClusterColumns(["a", "b"], [1, 3])
    assert list(columns) == [KeyCluster("a", 1), KeyCluster("b", 3)]
    assert len(columns) == 2
    assert columns == ClusterColumns(["a", "b"], [1, 3])
    assert columns != list(columns)  # columns compare only with columns


def test_column_form_rejects_zero_buckets():
    with pytest.raises(ValueError):
        bpvc_buckets(ClusterColumns(["a"], [1]), (), 0)
    with pytest.raises(ValueError):
        hash_buckets(ClusterColumns(["a"], [1]), (), 0)
