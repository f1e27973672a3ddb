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
from typing import Iterable, Iterator, Mapping, Sequence

from .tuples import Key, StreamTuple

__all__ = ["DataBlock", "MapInput", "PartitionedBatch", "BatchInfo"]


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
    when it is shipped to a worker process: its index, its summed weight
    and one value column per key, in the block's own key order.  Built
    of plain containers only, it pickles without any per-tuple Python.
    """

    __slots__ = ("index", "size", "_columns")

    def __init__(self, index: int, size: int, columns: dict[Key, list]) -> None:
        self.index = index
        self.size = size
        self._columns = columns

    @property
    def cardinality(self) -> int:
        return len(self._columns)

    @property
    def keys(self) -> Iterable[Key]:
        return self._columns.keys()

    @property
    def by_key(self) -> Mapping[Key, list]:
        """Key -> value column, in the block's key order (read only)."""
        return self._columns

    def values(self, key: Key) -> Sequence:
        return self._columns.get(key, ())

    def __contains__(self, key: Key) -> bool:
        return key in self._columns


class DataBlock:
    """One partition of a micro-batch: the input of a single Map task.

    Tuples are stored grouped by key (*key fragments*, Section 3.3); the
    block tracks its total tuple weight and key cardinality in O(1).
    """

    __slots__ = ("index", "_fragments", "_fragment_weights", "_weight")

    def __init__(self, index: int) -> None:
        self.index = index
        self._fragments: dict[Key, list[StreamTuple]] = {}
        self._fragment_weights: dict[Key, int] = {}
        self._weight = 0

    # -- mutation -------------------------------------------------------
    def add_fragment(self, key: Key, tuples: Sequence[StreamTuple]) -> None:
        """Append ``tuples`` to this block's fragment of ``key``."""
        self.install_fragment(key, tuples, sum(t.weight for t in tuples))

    def add_tuple(self, t: StreamTuple) -> None:
        self.add_fragment(t.key, (t,))

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
        chain = self._fragments.get(key)
        if chain is None:
            self._fragments[key] = list(tuples)
            self._fragment_weights[key] = weight
        else:
            chain.extend(tuples)
            self._fragment_weights[key] += weight
        self._weight += weight

    def adopt_fragment(self, key: Key, chain: list[StreamTuple], weight: int) -> None:
        """Make ``chain`` *itself* this block's fragment of ``key``.

        ``key`` must be new to the block and ``chain`` non-empty;
        ``weight`` is its exact size (vouched, as in
        :meth:`install_fragment`).  Unlike ``install_fragment`` nothing
        is copied: the caller hands the list over, and later moves on
        this block may extend it in place, so no one else may hold it.
        """
        self._fragments[key] = chain
        self._fragment_weights[key] = weight
        self._weight += weight

    def adopt_chains(
        self,
        keys: Sequence[Key],
        chains: Iterable[list[StreamTuple]],
        weights: Sequence[int],
    ) -> None:
        """:meth:`adopt_fragment` for many keys at once, in two C-level
        ``dict.update`` calls."""
        self._fragments.update(zip(keys, chains))
        self._fragment_weights.update(zip(keys, weights))
        self._weight += sum(weights)

    def remove_fragment(self, key: Key) -> list[StreamTuple]:
        """Detach and return this block's fragment of ``key``."""
        chain = self._fragments.pop(key, None)
        if chain is None:
            return []
        self._weight -= self._fragment_weights.pop(key)
        return chain

    # -- inspection ------------------------------------------------------
    @property
    def size(self) -> int:
        """Total tuple weight in the block (``|Block|`` in Eqn. 2)."""
        return self._weight

    @property
    def cardinality(self) -> int:
        """Distinct keys in the block (``||Block||`` in Eqn. 4)."""
        return len(self._fragments)

    @property
    def keys(self) -> Iterable[Key]:
        return self._fragments.keys()

    def fragment(self, key: Key) -> list[StreamTuple]:
        return self._fragments.get(key, [])

    @property
    def by_key(self) -> Mapping[Key, list[StreamTuple]]:
        """Key -> tuple chain, in the block's key order (read only)."""
        return self._fragments

    def map_input(self) -> MapInput:
        """This block as a Map task reads it (see :class:`MapInput`)."""
        return MapInput(
            self.index,
            self._weight,
            {k: [t.value for t in chain] for k, chain in self._fragments.items()},
        )

    def fragment_sizes(self) -> dict[Key, int]:
        """Per-key total weight inside this block (O(1) per key, cached)."""
        return dict(self._fragment_weights)

    def tuples(self) -> Iterator[StreamTuple]:
        for chain in self._fragments.values():
            yield from chain

    def tuple_count(self) -> int:
        return sum(len(chain) for chain in self._fragments.values())

    def __contains__(self, key: Key) -> bool:
        return key in self._fragments

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
