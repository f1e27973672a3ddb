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
from dataclasses import dataclass, field
from typing import Collection, Mapping, Sequence

from .hashing import hash_to_bucket
from .tuples import Key, _order_tokens

__all__ = [
    "KeyCluster",
    "BucketAssignment",
    "ReduceBucketAllocator",
    "hash_allocate",
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


def hash_allocate(
    clusters: Sequence[KeyCluster], num_buckets: int
) -> BucketAssignment:
    """The conventional hashing assignment (Figure 8a) — baseline behaviour."""
    out = BucketAssignment(num_buckets=num_buckets, bucket_loads=[0] * num_buckets)
    for cluster in clusters:
        bucket = hash_to_bucket(cluster.key, num_buckets)
        out.assignment[cluster.key] = bucket
        out.bucket_loads[bucket] += cluster.size
    return out


def hash_reduce_allocation(
    clusters: Sequence[KeyCluster],
    split_keys: Collection[Key] | Mapping[Key, object],
    num_buckets: int,
) -> BucketAssignment:
    """Module-level hashing allocation (``split_keys`` is irrelevant to it).

    Execution backends ship this by *reference* to worker processes —
    pickling a function defined at module scope costs bytes, not a copy
    of any partitioner state.
    """
    return hash_allocate(list(clusters), num_buckets)


def bpvc_reduce_allocation(
    clusters: Sequence[KeyCluster],
    split_keys: Collection[Key] | Mapping[Key, object],
    num_buckets: int,
) -> BucketAssignment:
    """Module-level Algorithm 3 allocation (stateless; safe across processes)."""
    return ReduceBucketAllocator(num_buckets).allocate(list(clusters), split_keys)


class ReduceBucketAllocator:
    """Algorithm 3: local, load-aware Reduce bucket allocation."""

    def __init__(self, num_buckets: int) -> None:
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.num_buckets = num_buckets

    def allocate(
        self,
        clusters: Sequence[KeyCluster],
        split_keys: Collection[Key] | Mapping[Key, object] = (),
    ) -> BucketAssignment:
        """Route ``clusters`` to buckets given the block reference table.

        ``split_keys`` is the set of keys this Map task must route by
        hashing (they also exist in other blocks).
        """
        r = self.num_buckets
        out = BucketAssignment(num_buckets=r, bucket_loads=[0] * r)
        total = sum(c.size for c in clusters)

        # Line 2: split keys go by hashing so all their fragments meet.
        non_split: list[KeyCluster] = []
        for cluster in clusters:
            if cluster.key in split_keys:
                bucket = hash_to_bucket(cluster.key, r)
                out.assignment[cluster.key] = bucket
                out.bucket_loads[bucket] += cluster.size
            else:
                non_split.append(cluster)

        # Line 4: sort non-split clusters by decreasing size, ties on the
        # key's order token — as two stable passes over C-level keys, so
        # no tuple is built and no Python frame entered per cluster.
        tokens = _order_tokens([c.key for c in non_split])
        sizes = [c.size for c in non_split]
        order = sorted(range(len(non_split)), key=tokens.__getitem__)
        order.sort(key=sizes.__getitem__, reverse=True)
        non_split = [non_split[i] for i in order]

        # Zero-size clusters carry no load, so WorstFit has no signal to
        # spread them (with total == 0 every capacity is 0 and the
        # overflow fallback would dump them all on bucket 0 — worst-case
        # cardinality imbalance).  Round-robin keeps their *count*
        # balanced instead; they sorted to the tail in deterministic key
        # order, so the placement is stable.
        zero_sized = [c for c in non_split if c.size == 0]
        non_split = [c for c in non_split if c.size > 0]

        # Lines 5-12: WorstFit with bucket retirement.  Capacity is the
        # residual of the expected equal share Bucket_size = |C| / |R|
        # after the hashed split keys landed (the variable capacities of
        # B-BPVC); buckets eroded past their share (e.g. the one owning
        # a hot split key) are excluded until nothing else has room —
        # B-BPVC requirement (1) limits bucket overflow.
        #
        # Inside one round the chosen bucket retires and no other
        # capacity moves, so the round's WorstFit picks are exactly its
        # open buckets in ascending (load, index) order: sort once per
        # round, deal the next clusters down that order.
        expected = -(-total // r) if total else 0  # ceil(|C| / |R|)
        loads = out.bucket_loads
        assignment = out.assignment
        dealt = 0
        while dealt < len(non_split):
            # stable sort over ascending indexes: ties break on index
            open_buckets = sorted(
                [j for j in range(r) if loads[j] < expected],
                key=loads.__getitem__,
            )
            if not open_buckets:
                break
            for j, cluster in zip(
                open_buckets, non_split[dealt : dealt + len(open_buckets)]
            ):
                assignment[cluster.key] = j
                loads[j] += cluster.size
            dealt += len(open_buckets)
        if dealt < len(non_split):
            # Every bucket is at/over its share and loads only grow, so
            # none reopens: the rest go to the globally least-loaded
            # bucket, one (load, index) heap step each.
            heap = [(loads[j], j) for j in range(r)]
            heapq.heapify(heap)
            for cluster in non_split[dealt:]:
                load, j = heap[0]
                assignment[cluster.key] = j
                loads[j] = load + cluster.size
                heapq.heapreplace(heap, (loads[j], j))
        for i, cluster in enumerate(zero_sized):
            out.assignment[cluster.key] = i % r
        return out
