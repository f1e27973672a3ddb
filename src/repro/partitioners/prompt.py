"""The Prompt scheme packaged behind the common Partitioner interface.

Combines the three run-time pieces of the paper:

- frequency-aware buffering (Algorithm 1) over the batch interval,
- the B-BPFI batch partitioning heuristic (Algorithm 2) at the (early)
  batching cut-off, and
- the B-BPVC reduce allocation heuristic (Algorithm 3) inside each Map
  task during the processing phase.

``partition`` stamps the measured wall-clock partitioning cost onto the
result so the early-release audit (Figure 14b) can compare it against
the 5% slack budget.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

from ..core import kernels
from ..core.batch import BatchInfo, PartitionedBatch
from ..core.batch_partitioner import PromptBatchPartitioner
from ..core.buffering import AccumulatedBatch, MicroBatchAccumulator
from ..core.config import PromptConfig
from ..core.reduce_allocator import bpvc_buckets
from ..core.sketch_accumulator import SketchMicroBatchAccumulator
from ..core.tuples import StreamTuple
from .base import Partitioner, ReduceAllocation

__all__ = ["PromptPartitioner"]


class PromptPartitioner(Partitioner):
    """Prompt's full data-partitioning scheme (Sections 4-5).

    ``post_sort=True`` switches to the ablation of Figure 14a: skip the
    frequency-aware accumulator and sort all keys exactly at the
    heartbeat instead (same partition quality, but the sort happens
    inside the critical path rather than during batching).  It is
    Algorithm 1's column build with no accumulator, ordered on exact
    sizes (:func:`repro.core.kernels.accumulate_batch`).
    """

    name = "prompt"
    uses_accumulator = True

    #: simulated cost of the heartbeat sort in the post-sort ablation:
    #: seconds per key * log2(keys) (comparison-sort work over the key
    #: list that frequency-aware buffering amortizes into batching).
    SORT_COST_PER_KEY_LOG = 2e-6

    def __init__(
        self,
        config: PromptConfig | None = None,
        *,
        exact_updates: bool = False,
        post_sort: bool = False,
        strategy: str = "greedy",
        stats: str = "tree",
        sketch_capacity: int = 256,
    ) -> None:
        if stats not in ("tree", "sketch"):
            raise ValueError(f"stats must be 'tree' or 'sketch', got {stats!r}")
        if exact_updates and stats == "sketch":
            raise ValueError("exact_updates only applies to stats='tree'")
        if post_sort and (exact_updates or stats == "sketch"):
            raise ValueError(
                "post_sort replaces Algorithm 1's statistics; it takes neither "
                "exact_updates nor stats='sketch'"
            )
        self.config = config or PromptConfig()
        self.post_sort = post_sort
        self.stats = stats
        self.exact_updates = exact_updates
        self.sketch_capacity = sketch_capacity
        self.batch_partitioner = PromptBatchPartitioner(
            self.config.partitioner, strategy=strategy
        )
        self.reset()

    def reset(self) -> None:
        """Forget cross-batch state, including the accumulator's adaptive
        N_est/K_avg history, so a fresh run replays identically.  The
        post-sort ablation keeps no statistics: its accumulator is None."""
        self.accumulator: MicroBatchAccumulator | SketchMicroBatchAccumulator | None
        if self.post_sort:
            self.accumulator = None
        elif self.stats == "tree":
            self.accumulator = MicroBatchAccumulator(
                self.config.accumulator, exact_updates=self.exact_updates
            )
        else:
            self.accumulator = SketchMicroBatchAccumulator(self.sketch_capacity)
        self.last_batch: AccumulatedBatch | None = None

    # ------------------------------------------------------------------
    def partition(
        self,
        tuples: Sequence[StreamTuple],
        num_blocks: int,
        info: BatchInfo,
    ) -> PartitionedBatch:
        """Buffer ``tuples`` through Algorithm 1, then run Algorithm 2.

        Both run here, on the whole interval, after the cut-off; the
        result reports them apart as ``buffer_elapsed`` and
        ``plan_elapsed``.  Only ``plan_elapsed`` is what the early-release
        audit charges — the paper's receiver would have buffered as
        tuples arrived, this one does not.  In the ``post_sort`` ablation
        the exact sort happens at the heartbeat, so the whole call is
        ``plan_elapsed``.
        """
        started = time.perf_counter()
        accumulated = kernels.accumulate_batch(tuples, info, self.accumulator)
        buffered = time.perf_counter()
        batch = self.batch_partitioner.partition(accumulated, num_blocks)
        if self.post_sort:  # the exact sort ran at the heartbeat
            buffered = started
            batch.partitioner_name = "prompt-postsort"
        batch.buffer_elapsed = buffered - started
        batch.plan_elapsed = time.perf_counter() - buffered
        self.last_batch = accumulated
        self.metrics.counter(
            "prompt_tree_updates_total",
            "CountTree updates spent by Algorithm 1's per-key budget",
        ).inc(accumulated.tree_updates)
        self.metrics.gauge(
            "prompt_accumulator_keys",
            "Distinct keys the accumulator tracked in the last interval",
        ).set(accumulated.key_count)
        return batch

    def heartbeat_overhead(self, batch: PartitionedBatch) -> float:
        """Post-sort pays an explicit K log K sort inside the heartbeat.

        With Early Batch Release (the default), the partitioning work is
        hidden in the batching slack and costs the processing phase
        nothing — the contrast Figure 14a measures.
        """
        if not self.post_sort:
            return 0.0
        keys = len(batch.distinct_keys())
        if keys == 0:
            return 0.0
        return self.SORT_COST_PER_KEY_LOG * keys * max(1.0, math.log2(keys))

    # ------------------------------------------------------------------
    def reduce_allocation(self) -> ReduceAllocation:
        """Algorithm 3: local load-aware allocation instead of hashing.

        The stateless module-level function, not a bound method: the
        partitioner instance drags the whole buffered batch
        (``last_batch``) along, and pickling it into every Map task
        would dwarf the task payload.
        """
        return bpvc_buckets
