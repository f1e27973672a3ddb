"""Micro-batch, data block, and block reference-table model.

A *micro-batch* is the set of tuples buffered over one batch interval
(Section 1).  The batching phase partitions it into ``p`` *data blocks*,
one per Map task.  Section 5: "each data block is equipped with a
reference table.  In this table, keys that exist in the data block are
labeled to indicate if they are split over other data blocks" — Map
tasks use that label to route split keys by hashing (Algorithm 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, count
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .tuples import Key, StreamTuple

__all__ = ["DataBlock", "MapInput", "PartitionedBatch", "BatchInfo"]

_GET_VALUE = attrgetter("value")


@dataclass(frozen=True, slots=True)
class BatchInfo:
    """Identity and bounds of one micro-batch."""

    index: int
    t_start: float
    t_end: float

    @property
    def interval(self) -> float:
        return self.t_end - self.t_start


class MapInput:
    """What a Map task reads of one block, and nothing else.

    ``Map(k, v1)`` (Section 2.1) sees a key and a value, never a
    timestamp or a per-tuple weight, so this is the form a block takes
    when it is shipped to a worker process: its index, its summed weight,
    its key column and one value column per key, in the block's own key
    order, and the block's order-token ranks when it has them (see
    :attr:`DataBlock.ranks`).  Built of plain containers and one numpy
    column, it pickles without any per-tuple Python.
    """

    __slots__ = ("index", "size", "keys", "fragments", "ranks")

    def __init__(
        self,
        index: int,
        size: int,
        keys: list[Key],
        fragments: list[list],
        ranks: Optional[np.ndarray] = None,
    ) -> None:
        self.index = index
        self.size = size
        self.keys = keys
        self.fragments = fragments
        self.ranks = ranks

    @property
    def cardinality(self) -> int:
        return len(self.keys)

    def values(self, key: Key) -> Sequence:
        return self.fragments[self.keys.index(key)] if key in self.keys else ()

    def __contains__(self, key: Key) -> bool:
        return key in self.keys


class DataBlock:
    """One partition of a micro-batch: the input of a single Map task.

    Tuples are stored grouped by key (*key fragments*, Section 3.3) in
    three aligned columns — ``keys``, ``fragments`` (each key's tuple
    chain) and ``weights`` (each fragment's total weight) — in the order
    keys entered the block.  The block tracks its total tuple weight in
    O(1).  The columns are read only: change them through the methods.

    The key -> position index is built only when a lookup needs it (``in``,
    :meth:`fragment`, :meth:`install_fragment` on a key already here,
    :meth:`remove_fragment`), so a bulk :meth:`adopt_chains` writes no
    dict entry.  ``ranks`` is each key's order-token rank among the
    batch's keys when the planner that filled the block knew them
    (:func:`repro.core.kernels.plan_greedy`); any later change to the
    block drops it to None, and Algorithm 3 then ranks the keys itself.
    """

    __slots__ = ("index", "keys", "fragments", "weights", "ranks", "_pos", "_weight")

    def __init__(self, index: int) -> None:
        self.index = index
        self.keys: list[Key] = []
        self.fragments: list[list[StreamTuple]] = []
        self.weights: list[int] = []
        self.ranks: Optional[np.ndarray] = None
        self._pos: Optional[dict[Key, int]] = {}
        self._weight = 0

    def _index(self) -> dict[Key, int]:
        if self._pos is None:
            self._pos = dict(zip(self.keys, count()))
        return self._pos

    def _append(self, key: Key, chain: list[StreamTuple], weight: int) -> None:
        if self._pos is not None:
            self._pos[key] = len(self.keys)
        self.keys.append(key)
        self.fragments.append(chain)
        self.weights.append(weight)
        self._weight += weight
        self.ranks = None

    # -- mutation -------------------------------------------------------
    def add_fragment(self, key: Key, tuples: Sequence[StreamTuple]) -> None:
        """Append ``tuples`` to this block's fragment of ``key``."""
        self.install_fragment(key, tuples, sum(t.weight for t in tuples))

    def add_tuple(self, t: StreamTuple) -> None:
        self.install_fragment(t.key, (t,), t.weight)

    def install_fragment(
        self, key: Key, tuples: Sequence[StreamTuple], weight: int
    ) -> None:
        """Append ``tuples``, of caller-vouched total ``weight``, to this
        block's fragment of ``key`` (copied in, never adopted; an empty
        ``tuples`` is skipped).

        The batch kernels already hold every fragment's exact weight
        (from vectorized sums), so re-summing ``t.weight`` per tuple
        here would re-pay the per-tuple Python cost the kernels exist
        to remove.  The caller is trusted; a wrong weight corrupts the
        block's size bookkeeping.
        """
        if not tuples:
            return
        i = self._index().get(key)
        if i is None:
            self._append(key, list(tuples), weight)
            return
        self.fragments[i].extend(tuples)
        self.weights[i] += weight
        self._weight += weight
        self.ranks = None

    def adopt_fragment(self, key: Key, chain: list[StreamTuple], weight: int) -> None:
        """Make ``chain`` *itself* this block's fragment of ``key``.

        ``key`` must be new to the block and ``chain`` non-empty;
        ``weight`` is its exact size (vouched, as in
        :meth:`install_fragment`).  Unlike ``install_fragment`` nothing
        is copied: the caller hands the list over, and later moves on
        this block may extend it in place, so no one else may hold it.
        """
        self._append(key, chain, weight)

    def adopt_chains(
        self,
        keys: Sequence[Key],
        chains: Iterable[list[StreamTuple]],
        weights: Sequence[int],
        ranks: Optional[np.ndarray] = None,
    ) -> None:
        """:meth:`adopt_fragment` for many keys at once: three list
        extends, and no index entry.  ``ranks``, aligned with ``keys``,
        become the block's :attr:`ranks` when the block was empty."""
        self.ranks = None if self.keys else ranks
        self.keys += keys
        self.fragments += chains
        self.weights += weights
        self._weight += sum(weights)
        self._pos = None

    def remove_fragment(self, key: Key) -> list[StreamTuple]:
        """Detach and return this block's fragment of ``key``."""
        i = self._index().get(key)
        if i is None:
            return []
        del self.keys[i]
        self._weight -= self.weights.pop(i)
        self.ranks = self._pos = None
        return self.fragments.pop(i)

    # -- inspection ------------------------------------------------------
    @property
    def size(self) -> int:
        """Total tuple weight in the block (``|Block|`` in Eqn. 2)."""
        return self._weight

    @property
    def cardinality(self) -> int:
        """Distinct keys in the block (``||Block||`` in Eqn. 4)."""
        return len(self.keys)

    def fragment(self, key: Key) -> list[StreamTuple]:
        i = self._index().get(key)
        return [] if i is None else self.fragments[i]

    def map_input(self) -> MapInput:
        """This block as a Map task reads it (see :class:`MapInput`)."""
        return MapInput(
            self.index,
            self._weight,
            self.keys[:],
            [list(map(_GET_VALUE, tuples)) for tuples in self.fragments],
            self.ranks,
        )

    def fragment_sizes(self) -> dict[Key, int]:
        """Per-key total weight inside this block."""
        return dict(zip(self.keys, self.weights))

    def tuples(self) -> Iterator[StreamTuple]:
        return chain.from_iterable(self.fragments)

    def tuple_count(self) -> int:
        return sum(map(len, self.fragments))

    def __contains__(self, key: Key) -> bool:
        return key in self._index()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DataBlock(index={self.index}, size={self.size}, "
            f"cardinality={self.cardinality})"
        )


@dataclass(slots=True)
class PartitionedBatch:
    """The output of the batching phase: blocks + split-key reference table.

    ``split_keys`` maps every key that was fragmented over 2+ blocks to
    the sorted tuple of block indexes holding its fragments — the
    "reference table" each block carries into the processing phase.
    """

    info: BatchInfo
    blocks: list[DataBlock]
    split_keys: dict[Key, tuple[int, ...]] = field(default_factory=dict)
    partitioner_name: str = ""
    #: measured wall-clock of the buffering pass (Algorithm 1 work the
    #: partitioner performed at the partition call; 0.0 for techniques
    #: that buffer nothing)
    buffer_elapsed: float = 0.0
    #: measured wall-clock of the partition-planning pass (Algorithm 2
    #: for Prompt; the heartbeat sort + plan in the post-sort ablation)
    plan_elapsed: float = 0.0

    @property
    def partition_elapsed(self) -> float:
        """Total driver-side partitioning wall-clock (buffer + plan).

        Figure-14-style overhead attribution should read the split
        ``buffer_elapsed`` / ``plan_elapsed`` fields directly; the
        Early-Batch-Release slack audit compares ``plan_elapsed`` alone
        (only Algorithm 2 must hide inside the slack).
        """
        return self.buffer_elapsed + self.plan_elapsed

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_size(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def total_tuples(self) -> int:
        return sum(b.tuple_count() for b in self.blocks)

    def distinct_keys(self) -> set[Key]:
        keys: set[Key] = set()
        for block in self.blocks:
            keys.update(block.keys)
        return keys

    def is_split(self, key: Key) -> bool:
        """Whether ``key``'s tuples live in more than one block."""
        return key in self.split_keys

    def key_fragment_count(self) -> int:
        """Total number of (key, block) fragments across all blocks."""
        return sum(block.cardinality for block in self.blocks)

    def compute_split_keys(self) -> None:
        """Rebuild ``split_keys`` from block contents.

        Partitioners that assign tuple-at-a-time (shuffle, PK2/PK5, ...)
        do not track splits as they go; they call this once at the end.
        """
        placements: dict[Key, list[int]] = {}
        for block in self.blocks:
            for key in block.keys:
                placements.setdefault(key, []).append(block.index)
        self.split_keys = {
            k: tuple(sorted(ixs)) for k, ixs in placements.items() if len(ixs) > 1
        }

    def validate(self, expected_tuples: int | None = None) -> None:
        """Sanity-check structural invariants (used by tests and harness)."""
        seen = self.total_tuples
        if expected_tuples is not None and seen != expected_tuples:
            raise AssertionError(
                f"partitioned batch holds {seen} tuples, expected {expected_tuples}"
            )
        for key, block_ixs in self.split_keys.items():
            if len(block_ixs) < 2:
                raise AssertionError(f"split key {key!r} lists {block_ixs}")
            for ix in block_ixs:
                if key not in self.blocks[ix]:
                    raise AssertionError(
                        f"split key {key!r} missing from block {ix}"
                    )
