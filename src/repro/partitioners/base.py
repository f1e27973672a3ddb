"""Common interface for batching-phase partitioning techniques.

Every technique — the paper's Prompt scheme and the baselines of
Section 2.2 / Section 7 — consumes the tuples of one batch interval and
produces a :class:`~repro.core.batch.PartitionedBatch` of ``p`` data
blocks.  Tuple-at-a-time techniques (time-based, shuffle, hashing,
PK2/PK5, cAM) decide per tuple in arrival order, exactly as they must in
a native DSPS; Prompt decides over the whole batch.

The interface also covers the processing phase: ``reduce_allocation``
returns the function that gives each of one Map task's key clusters a
Reduce bucket.  The default is the conventional hashing assignment every
baseline uses (Section 5, Figure 8a); Prompt returns Algorithm 3.
"""

from __future__ import annotations

import abc
from typing import Callable, Collection, Sequence

from ..core.batch import BatchInfo, DataBlock, PartitionedBatch
from ..core.reduce_allocator import ClusterColumns, hash_buckets
from ..core.tuples import Key, StreamTuple
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from .feedback import WorkerLoadFeedback

__all__ = ["Partitioner", "StreamingPartitioner", "ReduceAllocation"]

#: pure callable routing one Map task's clusters to Reduce buckets:
#: ``(clusters, split_keys, num_buckets)`` to one bucket id per cluster,
#: in cluster order
ReduceAllocation = Callable[[ClusterColumns, Collection[Key], int], list[int]]


class Partitioner(abc.ABC):
    """A batching-phase data partitioning technique."""

    #: registry identifier, e.g. ``"prompt"`` or ``"pk2"``
    name: str = "base"
    #: whether the technique needs the frequency-aware accumulator running
    uses_accumulator: bool = False
    #: whether the technique consumes :class:`WorkerLoadFeedback` — the
    #: engine only builds and routes feedback when this is True, so the
    #: default keeps the pre-feedback engine path (and its outputs)
    #: byte-identical
    uses_feedback: bool = False
    #: metrics sink the engine binds per run (no-op by default, so
    #: techniques may publish unconditionally; see repro.obs.metrics)
    metrics: MetricsRegistry = NULL_METRICS

    def bind_observability(self, metrics: MetricsRegistry) -> None:
        """Attach the run's metrics registry (engine calls this at start).

        Instance-level assignment, so concurrent engines sharing a
        partitioner *class* still get isolated sinks; rebinding with the
        no-op registry detaches.
        """
        self.metrics = metrics

    @abc.abstractmethod
    def partition(
        self,
        tuples: Sequence[StreamTuple],
        num_blocks: int,
        info: BatchInfo,
    ) -> PartitionedBatch:
        """Partition one batch's tuples into ``num_blocks`` data blocks.

        ``tuples`` are in arrival (timestamp) order.  Implementations
        must place every tuple exactly once.
        """

    def reduce_allocation(self) -> ReduceAllocation:
        """The function that routes one Map task's key clusters to Reduce
        buckets.

        Default: conventional hashing (key locality is guaranteed, load
        balance is not).  Execution backends dispatch Map tasks to worker
        processes and the allocation travels with them, so it must be
        (a) free of shared mutable state and (b) cheap to pickle: a
        module-level function, not a bound method of a partitioner.
        """
        return hash_buckets

    def observe_load(self, feedback: WorkerLoadFeedback) -> None:
        """Consume one completed batch's observed per-worker load.

        The engine delivers feedback in batch order with a fixed lag of
        :data:`~repro.partitioners.feedback.FEEDBACK_LAG` batches (see
        that module's determinism contract), and only when
        ``uses_feedback`` is True.  The default is a no-op so existing
        techniques are untouched.
        """

    def heartbeat_overhead(self, batch: PartitionedBatch) -> float:
        """Simulated work this technique adds at the heartbeat (seconds).

        Zero for per-tuple techniques and for Prompt with Early Batch
        Release (the partitioning runs inside the batching slack); the
        post-sort ablation pays an explicit sort here (Figure 14a).
        """
        return 0.0

    def reset(self) -> None:
        """Clear any cross-batch state (called when a run starts)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class StreamingPartitioner(Partitioner):
    """Base for tuple-at-a-time techniques.

    Subclasses implement :meth:`assign`, deciding a block for each tuple
    as it arrives, optionally reading the running block states (this is
    what lets PK/cAM pick the least-loaded candidate).
    """

    @abc.abstractmethod
    def assign(
        self,
        t: StreamTuple,
        seq: int,
        blocks: Sequence[DataBlock],
        info: BatchInfo,
    ) -> int:
        """Return the target block index for tuple ``t`` (``seq`` = arrival #)."""

    def partition(
        self,
        tuples: Sequence[StreamTuple],
        num_blocks: int,
        info: BatchInfo,
    ) -> PartitionedBatch:
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        blocks = [DataBlock(i) for i in range(num_blocks)]
        for seq, t in enumerate(tuples):
            target = self.assign(t, seq, blocks, info)
            if not 0 <= target < num_blocks:
                raise AssertionError(
                    f"{self.name} assigned tuple to invalid block {target}"
                )
            blocks[target].add_tuple(t)
        batch = PartitionedBatch(info=info, blocks=blocks, partitioner_name=self.name)
        batch.compute_split_keys()
        return batch
