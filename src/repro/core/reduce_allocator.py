"""Processing-phase partitioning — the B-BPVC heuristic (Algorithm 3).

After a Map task runs, its output is a set of *key clusters* (all values
sharing a key).  Clusters must be routed to Reduce buckets such that
(1) every fragment of a key — across *all* Map tasks — meets at one
Reducer, and (2) bucket loads are even.  Global coordination among Map
tasks would stall the pipeline, so Algorithm 3 makes purely local
decisions:

- Keys marked *split* in the block reference table are assigned by
  hashing: every Map task hashes identically, so fragments of a split
  key converge on one bucket with zero communication.
- Non-split keys exist in exactly one Map task, which is therefore free
  to place them: it sorts them by decreasing size and uses **WorstFit**
  (roomiest bucket first) with *retirement* — a bucket that receives a
  cluster leaves the candidate set until every bucket has received one —
  promoting both size balance and cardinality balance.

The underlying problem, bin packing into bins whose capacities were
eroded unevenly by the hashed split keys, is *Balanced Bin Packing with
Variable Capacity* (Definition 2), NP-complete (Theorem 2).  Because
each Map task independently minimizes its own imbalance, the additive
overall imbalance shrinks (Section 5).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import neg
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .hashing import hash_to_bucket
from .tuples import Key, token_order

__all__ = [
    "KeyCluster",
    "ClusterColumns",
    "BucketAssignment",
    "ReduceBucketAllocator",
    "hash_allocate",
    "hash_buckets",
    "bpvc_buckets",
    "hash_reduce_allocation",
    "bpvc_reduce_allocation",
]


@dataclass(frozen=True, slots=True)
class KeyCluster:
    """One key's portion of a Map task's intermediate output."""

    key: Key
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"cluster size must be >= 0, got {self.size}")


class ClusterColumns:
    """One Map task's key clusters as two aligned columns.

    ``keys[i]`` is a key of the block, in the block's own key order, and
    ``sizes[i]`` its cluster size.  This is the form the Map task builds
    and Algorithm 3 reads; iterating it yields :class:`KeyCluster`
    objects one at a time for code that wants them.
    """

    __slots__ = ("keys", "sizes")

    def __init__(self, keys: list[Key], sizes: list[int]) -> None:
        self.keys = keys
        self.sizes = sizes

    @classmethod
    def of(cls, clusters: Iterable[KeyCluster]) -> ClusterColumns:
        """``clusters`` as columns: returned as is when they already are."""
        if isinstance(clusters, ClusterColumns):
            return clusters
        clusters = list(clusters)
        return cls([c.key for c in clusters], [c.size for c in clusters])

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[KeyCluster]:
        return map(KeyCluster, self.keys, self.sizes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ClusterColumns):
            return self.keys == other.keys and self.sizes == other.sizes
        return NotImplemented

    def __repr__(self) -> str:
        return f"ClusterColumns(keys={self.keys!r}, sizes={self.sizes!r})"


@dataclass(slots=True)
class BucketAssignment:
    """Cluster-to-bucket routing produced by one Map task."""

    num_buckets: int
    assignment: dict[Key, int] = field(default_factory=dict)
    bucket_loads: list[int] = field(default_factory=list)

    def load_of(self, bucket: int) -> int:
        return self.bucket_loads[bucket]

    @property
    def max_load(self) -> int:
        return max(self.bucket_loads, default=0)

    @property
    def imbalance(self) -> float:
        """Bucket-size imbalance (Eqn. 3) of this task's own output."""
        if not self.bucket_loads:
            return 0.0
        return self.max_load - sum(self.bucket_loads) / len(self.bucket_loads)


def hash_buckets(
    keys: Sequence[Key], sizes: Sequence[int], num_buckets: int
) -> tuple[list[int], list[int]]:
    """The conventional hashing assignment (Figure 8a) on cluster columns.

    Returns ``(buckets, loads)``: ``buckets[i]`` is cluster ``i``'s
    Reduce bucket, ``loads[j]`` the summed size routed to bucket ``j``.
    """
    if num_buckets < 1:
        raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
    buckets = [hash_to_bucket(key, num_buckets) for key in keys]
    loads = [0] * num_buckets
    for j, size in zip(buckets, sizes):
        loads[j] += size
    return buckets, loads


def bpvc_buckets(
    keys: Sequence[Key],
    sizes: Sequence[int],
    split_keys: Collection[Key] | Mapping[Key, object],
    num_buckets: int,
) -> tuple[list[int], list[int]]:
    """Algorithm 3 on cluster columns: ``(buckets, loads)`` as in
    :func:`hash_buckets`, with bucket -1 for a negative-size cluster,
    which is left unplaced.

    ``split_keys`` holds the keys this Map task must route by hashing
    (they also exist in other blocks).
    """
    r = num_buckets
    if r < 1:
        raise ValueError(f"num_buckets must be >= 1, got {r}")
    n = len(keys)
    buckets = [0] * n
    loads = [0] * r
    total = sum(sizes)

    # Line 2: split keys go by hashing so all their fragments meet.
    if split_keys:
        non_split = []
        for i, key in enumerate(keys):
            if key in split_keys:
                j = hash_to_bucket(key, r)
                buckets[i] = j
                loads[j] += sizes[i]
            else:
                non_split.append(i)
        order = [non_split[i] for i in token_order([keys[i] for i in non_split]).tolist()]
    else:
        order = token_order(keys).tolist()

    # Line 4: non-split clusters by decreasing size, ties on the key's
    # order token — a stable size sort over the token order.
    order.sort(key=sizes.__getitem__, reverse=True)
    placed_sizes = [sizes[i] for i in order]

    # Zero-size clusters carry no load, so WorstFit has no signal to
    # spread them (with total == 0 every capacity is 0 and the overflow
    # tail would dump them all on bucket 0 — worst-case cardinality
    # imbalance).  Round-robin keeps their *count* balanced instead;
    # they sorted behind the positive prefix in deterministic key
    # order, so the placement is stable.  A negative size, which no Map
    # task emits, counts into ``total`` but is left unplaced (bucket -1).
    m = bisect_left(placed_sizes, 0, key=neg)  # the positive prefix
    z = bisect_right(placed_sizes, 0, lo=m, key=neg)  # ... then the zeros

    # Lines 5-12: WorstFit with bucket retirement.  Capacity is the
    # residual of the expected equal share Bucket_size = |C| / |R| after
    # the hashed split keys landed (the variable capacities of B-BPVC);
    # buckets eroded past their share (e.g. the one owning a hot split
    # key) are excluded until nothing else has room — B-BPVC
    # requirement (1) limits bucket overflow.
    #
    # Inside one round the chosen bucket retires and no other capacity
    # moves, so the round's WorstFit picks are exactly its open buckets
    # in ascending (load, index) order: sort once per round, deal the
    # next clusters down that order.  Inside a run of equal cluster size
    # ``s`` each round adds ``s`` to every open bucket, which keeps that
    # order, so the same order repeats until the fullest open bucket
    # reaches ``expected``: whole rounds up to that one are dealt in one
    # step.
    expected = -(-total // r) if total else 0  # ceil(|C| / |R|)
    dealt_buckets: list[int] = []
    dealt = 0
    while dealt < m:
        # stable sort over ascending indexes: ties break on index
        open_buckets = sorted(
            [j for j in range(r) if loads[j] < expected], key=loads.__getitem__
        )
        if not open_buckets:
            break
        width = len(open_buckets)
        run_size = placed_sizes[dealt]
        run_end = bisect_right(placed_sizes, -run_size, lo=dealt, hi=m, key=neg)
        rounds = min(
            (run_end - dealt) // width,
            (expected - 1 - loads[open_buckets[-1]]) // run_size + 1,
        )
        if rounds:
            dealt_buckets += open_buckets * rounds
            for j in open_buckets:
                loads[j] += run_size * rounds
            dealt += width * rounds
            continue
        chunk = placed_sizes[dealt : min(dealt + width, m)]
        dealt_buckets += open_buckets[: len(chunk)]
        for j, size in zip(open_buckets, chunk):
            loads[j] += size
        dealt += len(chunk)
    if dealt < m:
        # Every bucket is at/over its share and loads only grow, so none
        # reopens: the rest go to the globally least-loaded bucket, one
        # (load, index) heap step each.  Unreachable with non-negative
        # sizes (the placed load would exceed the total).
        heap = [(loads[j], j) for j in range(r)]
        heapq.heapify(heap)
        for size in placed_sizes[dealt:m]:
            load, j = heap[0]
            dealt_buckets.append(j)
            loads[j] = load + size
            heapq.heapreplace(heap, (loads[j], j))
    for i, j in zip(order, dealt_buckets):
        buckets[i] = j
    for turn, i in enumerate(order[m:z]):
        buckets[i] = turn % r
    for i in order[z:]:
        buckets[i] = -1
    return buckets, loads


def hash_allocate(
    clusters: Iterable[KeyCluster], num_buckets: int
) -> BucketAssignment:
    """The conventional hashing assignment (Figure 8a) — baseline behaviour."""
    c = ClusterColumns.of(clusters)
    buckets, loads = hash_buckets(c.keys, c.sizes, num_buckets)
    return BucketAssignment(num_buckets, dict(zip(c.keys, buckets)), loads)


def hash_reduce_allocation(
    clusters: Iterable[KeyCluster],
    split_keys: Collection[Key] | Mapping[Key, object],
    num_buckets: int,
) -> BucketAssignment:
    """Module-level hashing allocation (``split_keys`` is irrelevant to it).

    Execution backends ship this by *reference* to worker processes —
    pickling a function defined at module scope costs bytes, not a copy
    of any partitioner state.
    """
    return hash_allocate(clusters, num_buckets)


def bpvc_reduce_allocation(
    clusters: Iterable[KeyCluster],
    split_keys: Collection[Key] | Mapping[Key, object],
    num_buckets: int,
) -> BucketAssignment:
    """Module-level Algorithm 3 allocation (stateless; safe across processes)."""
    return ReduceBucketAllocator(num_buckets).allocate(clusters, split_keys)


class ReduceBucketAllocator:
    """Algorithm 3: local, load-aware Reduce bucket allocation."""

    def __init__(self, num_buckets: int) -> None:
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.num_buckets = num_buckets

    def allocate(
        self,
        clusters: Iterable[KeyCluster],
        split_keys: Collection[Key] | Mapping[Key, object] = (),
    ) -> BucketAssignment:
        """Route ``clusters`` to buckets given the block reference table
        (see :func:`bpvc_buckets`); the assignment lists keys in cluster
        order."""
        c = ClusterColumns.of(clusters)
        r = self.num_buckets
        buckets, loads = bpvc_buckets(c.keys, c.sizes, split_keys, r)
        assignment = dict(zip(c.keys, buckets))
        if -1 in buckets:  # unplaced negative-size clusters
            assignment = {k: j for k, j in assignment.items() if j >= 0}
        return BucketAssignment(r, assignment, loads)
