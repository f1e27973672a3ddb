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
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .batch import BatchInfo
from .config import AccumulatorConfig
from .tuples import Key, StreamTuple

__all__ = ["AccumulatedBatch", "MicroBatchAccumulator"]

_GET_WEIGHT = attrgetter("weight")


@dataclass(slots=True, eq=False)
class AccumulatedBatch:
    """Output of one batching phase, and Algorithm 2's input.

    Algorithm 1's heartbeat hands Algorithm 2 one quasi-sorted
    ``<key, count, tuple-list>`` sequence; this is that sequence as
    aligned columns.  ``keys`` is the quasi-sorted key order, ``chains``
    each key's tuple list in arrival order, ``sizes`` each key's exact
    total weight and ``counts`` its exact tuple count (int64 arrays),
    and ``tracked`` the possibly stale count that decided its position.
    ``unit_weights`` is True when every tuple weighs 1; otherwise
    ``chain_weights`` holds per-key weight arrays, aligned with ``keys``.
    ``ranks``, when Algorithm 1 computed them, are the keys'
    order-token ranks among the batch's keys: the blocks carry them to
    Algorithm 3 as its tie order.

    The placement kernel hands the ``chains`` lists to its blocks, so
    after Algorithm 2 has run they belong to the blocks, which may
    extend them; ``counts`` and ``sizes`` still describe the interval.
    """

    info: BatchInfo
    keys: list[Key]
    chains: list[list[StreamTuple]]
    sizes: np.ndarray
    counts: np.ndarray
    tracked: np.ndarray
    tuple_count: int
    total_weight: int
    tree_updates: int = 0
    unit_weights: bool = True
    chain_weights: Optional[list[np.ndarray]] = None
    ranks: Optional[np.ndarray] = None

    @classmethod
    def from_chains(
        cls,
        info: BatchInfo,
        keys: Sequence[Key],
        chains: Sequence[Sequence[StreamTuple]],
    ) -> "AccumulatedBatch":
        """A batch whose keys come in the caller's order, tracked at their
        exact counts.  Each chain is copied once (a slice), so the
        blocks adopt lists of their own and never one the caller holds.
        """
        chains = [chain[:] for chain in chains]
        counts = np.fromiter(map(len, chains), dtype=np.int64, count=len(chains))
        weights = [
            np.fromiter(map(_GET_WEIGHT, chain), dtype=np.int64, count=len(chain))
            for chain in chains
        ]
        sizes = np.fromiter(map(np.sum, weights), dtype=np.int64, count=len(chains))
        tuple_count = int(counts.sum())
        total_weight = int(sizes.sum())
        unit_weights = total_weight == tuple_count
        return cls(
            info,
            list(keys),
            chains,
            sizes,
            counts,
            counts,
            tuple_count,
            total_weight,
            unit_weights=unit_weights,
            chain_weights=None if unit_weights else weights,
        )

    @property
    def key_count(self) -> int:
        return len(self.keys)

    def sort_quality(self) -> float:
        """Fraction of adjacent key pairs in correct (descending) exact order.

        Algorithm 1 orders keys by frequency (tracked counts estimate
        tuple counts), so the pairs compare exact tuple counts, not
        weights.  1.0 means the quasi-sort equals an exact sort at the
        granularity of adjacent comparisons; used to validate the budget
        mechanism.
        """
        counts = self.counts
        if counts.size < 2:
            return 1.0
        return int((counts[:-1] >= counts[1:]).sum()) / (counts.size - 1)


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
