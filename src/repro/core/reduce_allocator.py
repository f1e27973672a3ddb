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

Both allocations here, :func:`bpvc_buckets` and the hashing baseline
:func:`hash_buckets`, map ``(clusters, split_keys, num_buckets)`` to one
Reduce bucket id per cluster, in cluster order.  They are module-level
and stateless, so execution backends ship them to worker processes by
reference.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import neg
from typing import Collection, Iterator, Optional

import numpy as np

from .hashing import hash_to_bucket
from .tuples import Key, token_order

__all__ = ["KeyCluster", "ClusterColumns", "hash_buckets", "bpvc_buckets"]


@dataclass(frozen=True, slots=True)
class KeyCluster:
    """One key's portion of a Map task's intermediate output."""

    key: Key
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"cluster size must be >= 0, got {self.size}")


class ClusterColumns:
    """One Map task's key clusters as aligned columns.

    ``keys[i]`` is a key of the block, in the block's own key order, and
    ``sizes[i]`` its cluster size.  This is the form the Map task builds
    and Algorithm 3 reads; iterating it yields :class:`KeyCluster`
    objects one at a time for code that wants them.

    ``ranks[i]`` orders ``keys[i]`` by its order token (Algorithm 3's tie
    order): ranks compare as the tokens do.  The Map task hands on the
    ranks Algorithm 1 gave its block; without them the first read ranks
    the keys with :func:`~repro.core.tuples.token_order`.  Ranks are a
    derived order, not content: they take no part in ``==`` and are not
    pickled.
    """

    __slots__ = ("keys", "sizes", "_ranks")

    def __init__(
        self, keys: list[Key], sizes: list[int], ranks: Optional[np.ndarray] = None
    ) -> None:
        self.keys = keys
        self.sizes = sizes
        self._ranks = ranks

    @property
    def ranks(self) -> np.ndarray:
        if self._ranks is None:
            self._ranks = np.empty(len(self.keys), dtype=np.intp)
            self._ranks[token_order(self.keys)] = np.arange(len(self.keys))
        return self._ranks

    def __reduce__(self):
        return ClusterColumns, (self.keys, self.sizes)

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


def hash_buckets(
    clusters: ClusterColumns,
    split_keys: Collection[Key],
    num_buckets: int,
) -> list[int]:
    """The conventional hashing allocation (Figure 8a): ``buckets[i]`` is
    cluster ``i``'s Reduce bucket.

    Every key is hashed, so ``split_keys`` does not matter to it.
    """
    if num_buckets < 1:
        raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
    return [hash_to_bucket(key, num_buckets) for key in clusters.keys]


def bpvc_buckets(
    clusters: ClusterColumns,
    split_keys: Collection[Key],
    num_buckets: int,
) -> list[int]:
    """Algorithm 3: ``buckets[i]`` is cluster ``i``'s Reduce bucket.

    ``split_keys`` holds the keys this Map task must route by hashing
    (they also exist in other blocks).
    """
    r = num_buckets
    if r < 1:
        raise ValueError(f"num_buckets must be >= 1, got {r}")
    keys, sizes = clusters.keys, clusters.sizes
    size_of = np.fromiter(sizes, dtype=np.int64, count=len(sizes))
    if size_of.size and size_of.min() < 0:
        raise ValueError(f"cluster size must be >= 0, got {size_of.min()}")
    buckets = np.zeros(len(keys), dtype=np.intp)
    loads = [0] * r
    total = int(size_of.sum())

    # Line 2: split keys go by hashing so all their fragments meet.
    ranks = clusters.ranks
    if split_keys:
        non_split = []
        for i, key in enumerate(keys):
            if key in split_keys:
                j = hash_to_bucket(key, r)
                buckets[i] = j
                loads[j] += sizes[i]
            else:
                non_split.append(i)
        non_split = np.array(non_split, dtype=np.intp)
        order = non_split[np.argsort(ranks[non_split], kind="stable")]
    else:
        order = np.argsort(ranks, kind="stable")  # a radix sort on narrow ranks

    # Line 4: non-split clusters by decreasing size, ties on the key's
    # order token — a stable size sort over the token order.
    order = order[np.argsort(-size_of[order], kind="stable")]
    placed_sizes = size_of[order].tolist()

    # Zero-size clusters carry no load, so WorstFit has no signal to
    # spread them (with total == 0 every capacity is 0).  Round-robin
    # keeps their *count* balanced instead; they sorted behind the
    # positive prefix in deterministic key order, so the placement is
    # stable.
    m = bisect_left(placed_sizes, 0, key=neg)  # the positive prefix

    # Lines 5-12: WorstFit with bucket retirement.  Capacity is the
    # residual of the expected equal share Bucket_size = |C| / |R| after
    # the hashed split keys landed (the variable capacities of B-BPVC);
    # buckets eroded past their share (e.g. the one owning a hot split
    # key) are excluded until nothing else has room — B-BPVC
    # requirement (1) limits bucket overflow.  Some bucket always has
    # room while a positive cluster waits: the loads sum to less than
    # the total, which is at most ``r * expected``.
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
    buckets[order[:m]] = np.fromiter(dealt_buckets, dtype=np.intp, count=m)
    buckets[order[m:]] = np.arange(order.size - m) % r
    return buckets.tolist()
