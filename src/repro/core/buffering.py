"""Frequency-aware micro-batch buffering (Algorithm 1).

While tuples of the current batch interval arrive, the accumulator
maintains:

- an :class:`~repro.core.htable.HTable` chaining the tuples of each key
  with exact frequency counts, and
- a :class:`~repro.core.count_tree.CountTree` of *approximate* counts
  kept quasi-sorted online.

Re-positioning a CountTree node costs ``O(log K)``, so Algorithm 1
rations updates: every key gets a per-interval ``budget`` of tree
updates, and an update fires only when the key's pending frequency delta
reaches its frequency step (``f.step``) or when its time step
(``t.step``) elapses.  ``f.step`` adapts to each key's share of the
traffic (frequent keys need bigger deltas); ``t.step`` guarantees that
rare keys are still refreshed before the heartbeat.  This bounds the
total update work by ``budget * K * log K`` per interval while the
in-order traversal at the heartbeat yields a quasi-sorted key list *for
free* — no post-sort step delays the processing phase (Figure 14a
quantifies what that post-sort would cost).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Iterable, Optional

from .batch import BatchInfo
from .config import AccumulatorConfig
from .count_tree import CountTree
from .htable import HTable, KeyRecord
from .tuples import Key, KeyGroup, StreamTuple

__all__ = ["AccumulatedBatch", "MicroBatchAccumulator"]


class AccumulatedBatch:
    """Output of one batching phase.

    ``key_groups`` is quasi-sorted by descending frequency — the order
    the CountTree tracked online.  Each group carries its *exact* tuple
    chain (from the HTable) plus the possibly stale ``tracked_count``
    that determined its position.

    The array kernels hand Algorithm 2 columns, not groups, so their
    batch is built with :meth:`deferred`: ``key_groups`` is then a view
    built on first read (by the oracle comparison, the ``zigzag``
    strategy, tests), and ``key_count`` is stored so reading it builds
    nothing.
    """

    __slots__ = (
        "info",
        "tuple_count",
        "total_weight",
        "tree_updates",
        "key_count",
        "_key_groups",
        "_build_key_groups",
    )

    def __init__(
        self,
        info: BatchInfo,
        key_groups: list[KeyGroup],
        tuple_count: int,
        total_weight: int,
        tree_updates: int,
    ) -> None:
        self.info = info
        self.tuple_count = tuple_count
        self.total_weight = total_weight
        self.tree_updates = tree_updates
        self.key_count = len(key_groups)
        self._key_groups: Optional[list[KeyGroup]] = key_groups
        self._build_key_groups: Optional[Callable[[], list[KeyGroup]]] = None

    @classmethod
    def deferred(
        cls,
        info: BatchInfo,
        build_key_groups: Callable[[], list[KeyGroup]],
        key_count: int,
        tuple_count: int,
        total_weight: int,
        tree_updates: int,
    ) -> "AccumulatedBatch":
        """A batch whose ``key_groups`` ``build_key_groups()`` makes on first read."""
        batch = cls(info, [], tuple_count, total_weight, tree_updates)
        batch.key_count = key_count
        batch._key_groups = None
        batch._build_key_groups = build_key_groups
        return batch

    @property
    def key_groups(self) -> list[KeyGroup]:
        if self._key_groups is None:
            assert self._build_key_groups is not None
            self._key_groups = self._build_key_groups()
            self._build_key_groups = None
        return self._key_groups

    @property
    def data_rate(self) -> float:
        """Average arrival rate over the interval (tuples/second).

        A non-positive interval has no meaningful rate; it reports 0.0
        rather than silently pretending the interval was one second.
        """
        interval = self.info.interval
        return self.tuple_count / interval if interval > 0 else 0.0

    def arrival_order(self) -> list[StreamTuple]:
        """All tuples re-sorted by timestamp (for order-sensitive baselines).

        Each per-key chain is already in arrival (timestamp) order —
        tuples are appended as they arrive — so a K-way merge
        reconstructs the global order in ``O(N log K)`` instead of
        re-sorting the concatenation in ``O(N log N)``.  ``heapq.merge``
        breaks timestamp ties by iterable position, exactly how a stable
        sort of the concatenation would, so the output is identical.
        """
        return list(
            heapq.merge(*(g.tuples for g in self.key_groups), key=lambda t: t.ts)
        )

    def sort_quality(self) -> float:
        """Fraction of adjacent group pairs in correct (descending) exact order.

        1.0 means the quasi-sort equals an exact sort at the granularity
        of adjacent comparisons; used to validate the budget mechanism.
        """
        if len(self.key_groups) < 2:
            return 1.0
        good = sum(
            1
            for a, b in zip(self.key_groups, self.key_groups[1:])
            if a.size >= b.size
        )
        return good / (len(self.key_groups) - 1)


class MicroBatchAccumulator:
    """Implements the Micro-batch Accumulator of Algorithm 1.

    Usage per interval::

        acc = MicroBatchAccumulator(config)
        acc.start_interval(BatchInfo(0, t0, t0 + interval))
        for t in arriving_tuples:
            acc.accept(t)
        batch = acc.finalize()

    ``exact_updates=True`` disables the budget mechanism and reflects
    every tuple into the CountTree immediately (the "no approximation"
    ablation; the traversal is then exactly sorted).
    """

    def __init__(
        self,
        config: AccumulatorConfig | None = None,
        *,
        exact_updates: bool = False,
    ) -> None:
        self.config = config or AccumulatorConfig()
        self.exact_updates = exact_updates
        self.htable = HTable()
        self.count_tree = CountTree()
        self._info: Optional[BatchInfo] = None
        self._tree_updates = 0
        # History for adapting N_est and K_avg (Section 4.1).
        self._tuple_history: deque[int] = deque(maxlen=self.config.history_window)
        self._key_history: deque[int] = deque(maxlen=self.config.history_window)
        self._initial_f_step = self.config.initial_frequency_step

    # ------------------------------------------------------------------
    @property
    def info(self) -> BatchInfo:
        if self._info is None:
            raise RuntimeError("accumulator has no open interval; call start_interval")
        return self._info

    @property
    def tuple_count(self) -> int:
        return self.htable.tuple_count

    @property
    def key_count(self) -> int:
        return len(self.htable)

    @property
    def tree_updates(self) -> int:
        """CountTree repositionings performed in the current interval."""
        return self._tree_updates

    def estimated_tuples(self) -> int:
        """``N_est``: expected tuples this interval, from recent history."""
        if not self._tuple_history:
            return self.config.expected_tuples
        return max(1, sum(self._tuple_history) // len(self._tuple_history))

    def average_keys(self) -> int:
        """``K_avg``: average distinct keys over the past few batches."""
        if not self._key_history:
            return self.config.expected_keys
        return max(1, sum(self._key_history) // len(self._key_history))

    # ------------------------------------------------------------------
    def start_interval(self, info: BatchInfo) -> None:
        """Reset HTable and CountTree and open a new batch interval."""
        if info.t_end <= info.t_start:
            raise ValueError(f"empty batch interval: {info}")
        self.htable.clear()
        self.count_tree.clear()
        self._info = info
        self._tree_updates = 0
        # f <- N_est / (K_avg * budget), re-estimated each interval.
        self._initial_f_step = max(
            1, self.estimated_tuples() // (self.average_keys() * self.config.budget)
        )

    def accept(self, t: StreamTuple, now: float | None = None) -> None:
        """Buffer one tuple, possibly refreshing its CountTree node.

        ``now`` is the ingestion time; it defaults to the tuple's source
        timestamp (the simulator feeds tuples in timestamp order, which
        matches the paper's sorted-arrival assumption in Section 2.1).
        """
        info = self.info
        when = t.ts if now is None else now
        record, was_new = self.htable.append(t)
        if was_new:
            self._register_new_key(record, when, info)
            return
        if self.exact_updates:
            self._apply_update(record, when, info, consume_budget=False)
            return
        if record.budget_left <= 0:
            return  # not eligible: budget exhausted for this interval
        delta_freq = record.pending_delta
        delta_time = when - record.last_update_time
        if delta_freq >= record.f_step:
            self._apply_update(record, when, info)
            self._retune_f_step(record, info)
        elif delta_time >= record.t_step:
            self._apply_update(record, when, info)
            self._retune_t_step(record, when, info)
        # else: key is not eligible for an update yet (Algorithm 1 line 21)

    def finalize(self) -> AccumulatedBatch:
        """Close the interval: traverse, package, record history, reset.

        The descending in-order traversal of the CountTree yields the
        quasi-sorted ``<k, count, tupleList>`` list consumed by
        Algorithm 2.
        """
        info = self.info
        groups: list[KeyGroup] = []
        for node in self.count_tree.in_order_desc():
            record = self.htable.get(node.key)
            assert record is not None, "CountTree key missing from HTable"
            groups.append(
                KeyGroup(key=node.key, tuples=record.tuples, tracked_count=node.count)
            )
        batch = AccumulatedBatch(
            info=info,
            key_groups=groups,
            tuple_count=self.htable.tuple_count,
            total_weight=self.htable.weight,
            tree_updates=self._tree_updates,
        )
        self._tuple_history.append(batch.tuple_count)
        self._key_history.append(batch.key_count)
        self.htable.clear()
        self.count_tree.clear()
        self._info = None
        return batch

    def record_interval_stats(self, tuple_count: int, key_count: int) -> None:
        """Feed one interval's totals into the ``N_est``/``K_avg`` history.

        ``finalize`` does this implicitly; the batch ingest kernel
        (:mod:`repro.core.kernels`) computes an interval without ever
        opening one here, so it reports the totals through this hook —
        keeping the cross-batch adaptation state identical between the
        two paths.
        """
        self._tuple_history.append(tuple_count)
        self._key_history.append(key_count)

    def accept_all(self, tuples: Iterable[StreamTuple]) -> None:
        """Bulk-feed tuples (simulator convenience).

        The bound-method hoist matters here: this loop is the receiver's
        per-interval ingest path, and re-resolving ``self.accept`` per
        tuple is measurable at high arrival rates.
        """
        accept = self.accept
        for t in tuples:
            accept(t)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _register_new_key(
        self, record: KeyRecord, when: float, info: BatchInfo
    ) -> None:
        """Algorithm 1, lines 24-30: first sighting of a key."""
        record.node = self.count_tree.insert(record.key, 1)
        record.freq_updated = 1
        record.last_update_time = when
        record.budget_left = self.config.budget
        record.f_step = self._initial_f_step
        remaining = max(info.t_end - when, 0.0)
        record.t_step = remaining / self.config.budget

    def _apply_update(
        self,
        record: KeyRecord,
        when: float,
        info: BatchInfo,
        *,
        consume_budget: bool = True,
    ) -> None:
        """Reflect the key's exact frequency into its CountTree node."""
        assert record.node is not None
        self.count_tree.update(record.node, record.freq_current)
        record.freq_updated = record.freq_current
        record.last_update_time = when
        if consume_budget:
            record.budget_left -= 1
        self._tree_updates += 1

    def _retune_f_step(self, record: KeyRecord, info: BatchInfo) -> None:
        """``f.step = (N_est / budget) * freq_current / N_C`` (line 13)."""
        n_c = max(1, self.htable.tuple_count)
        share = record.freq_current / n_c
        step = (self.estimated_tuples() / self.config.budget) * share
        record.f_step = max(1, int(step))

    def _retune_t_step(self, record: KeyRecord, when: float, info: BatchInfo) -> None:
        """``t.step = (t_end - now) / budget_left`` (line 19)."""
        remaining = max(info.t_end - when, 0.0)
        denom = max(1, record.budget_left)
        record.t_step = remaining / denom
