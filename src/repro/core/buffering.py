"""Frequency-aware micro-batch buffering (Algorithm 1): its output and
its per-run state.

Algorithm 1 (Section 4.1) chains every arriving tuple under its key in
an HTable and keeps *approximate* per-key counts quasi-sorted in a
CountTree.  Re-positioning a node costs ``O(log K)``, so updates are
rationed: every key gets a per-interval ``budget`` of them, and one
fires only when the key's pending frequency delta reaches its
frequency step (``f.step``) or its time step (``t.step``) elapses.
``f.step`` adapts to each key's share of the traffic; ``t.step``
guarantees that rare keys are still refreshed before the heartbeat,
whose in-order traversal yields the quasi-sorted key list *for free* —
no post-sort step delays the processing phase (Figure 14a quantifies
what that post-sort would cost).

:func:`repro.core.kernels.accumulate_batch` computes that outcome a
whole interval at a time (the tree's traversal is a sort on the final
tracked counts).  This module holds what it produces,
:class:`AccumulatedBatch`, and what it carries from one interval to the
next, :class:`MicroBatchAccumulator`.  The per-tuple algorithm as
printed is transcribed in ``tests/oracle/prompt_spec.py``, the oracle
the kernel is tested against.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from .batch import BatchInfo
from .config import AccumulatorConfig
from .tuples import KeyGroup

__all__ = ["AccumulatedBatch", "MicroBatchAccumulator"]


class AccumulatedBatch:
    """Output of one batching phase.

    ``key_groups`` is quasi-sorted by descending frequency — the order
    the CountTree tracked online.  Each group carries its *exact* tuple
    chain plus the possibly stale ``tracked_count`` that determined its
    position.

    The array kernels hand Algorithm 2 columns, not groups, so their
    batch is built with :meth:`deferred`: ``key_groups`` is then a view
    built on first read (by the ``zigzag`` strategy, ``sort_quality``,
    tests), and ``key_count`` is stored so reading it builds nothing.
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

    def sort_quality(self) -> float:
        """Fraction of adjacent group pairs in correct (descending) exact order.

        Algorithm 1 orders keys by frequency (tracked counts estimate
        tuple counts), so the pairs compare exact tuple counts, not
        weights.  1.0 means the quasi-sort equals an exact sort at the
        granularity of adjacent comparisons; used to validate the budget
        mechanism.
        """
        if len(self.key_groups) < 2:
            return 1.0
        good = sum(
            1
            for a, b in zip(self.key_groups, self.key_groups[1:])
            if a.count >= b.count
        )
        return good / (len(self.key_groups) - 1)


class MicroBatchAccumulator:
    """Algorithm 1's state across intervals: its settings and history.

    Each interval runs through :func:`repro.core.kernels.accumulate_batch`,
    which reads ``config``, ``exact_updates`` and the ``N_est``/``K_avg``
    estimates here and feeds the interval's totals back through
    :meth:`record_interval_stats`.

    ``exact_updates=True`` disables the budget mechanism and reflects
    every tuple into the CountTree immediately (the "no approximation"
    ablation; the traversal is then exactly sorted by frequency).
    """

    def __init__(
        self,
        config: AccumulatorConfig | None = None,
        *,
        exact_updates: bool = False,
    ) -> None:
        self.config = config or AccumulatorConfig()
        self.exact_updates = exact_updates
        # History for adapting N_est and K_avg (Section 4.1).
        self._tuple_history: deque[int] = deque(maxlen=self.config.history_window)
        self._key_history: deque[int] = deque(maxlen=self.config.history_window)

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

    def record_interval_stats(self, tuple_count: int, key_count: int) -> None:
        """Feed one interval's totals into the ``N_est``/``K_avg`` history."""
        self._tuple_history.append(tuple_count)
        self._key_history.append(key_count)
