"""Windowed query state with incremental inverse-Reduce maintenance.

Section 2.1/Figure 3: "The query answer is computed by aggregating the
output of all batches that reside within the query window.  To avoid
redundant recalculations, the micro-batches that exit the window are
reflected incrementally onto the query answer by applying an inverse
Reduce function."  The evaluation repeats the point (Section 7):
"Inverse Reduce functions are implemented for all window queries ...
previous in-window batch results are cached in memory."

:class:`WindowedAggregator` is exactly that machinery: a ring of cached
per-batch outputs plus a running merged answer, updated in O(changed
keys) per batch instead of O(window).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Mapping

from ..core.tuples import Key
from ..queries.base import Aggregator

__all__ = ["WindowedAggregator"]


class WindowedAggregator:
    """Sliding-window per-key aggregate over consecutive batch outputs."""

    def __init__(self, aggregator: Aggregator, batches_per_window: int) -> None:
        if batches_per_window < 1:
            raise ValueError(
                f"batches_per_window must be >= 1, got {batches_per_window}"
            )
        self.aggregator = aggregator
        self.batches_per_window = batches_per_window
        self._cached: Deque[Mapping[Key, Any]] = deque()
        self._answer: dict[Key, Any] = {}

    def __len__(self) -> int:
        """Number of batches currently inside the window."""
        return len(self._cached)

    def add_batch(self, batch_output: Mapping[Key, Any]) -> dict[Key, Any]:
        """Slide the window forward by one batch and return the answer.

        Merges the new batch in; if the window is full, the oldest batch
        is inverse-applied (retracted) — never recomputed.  Both run
        through the aggregator's bulk hooks, which keep the answer
        sparse (a key whose accumulator reaches zero is dropped).
        """
        agg = self.aggregator
        if len(self._cached) == self.batches_per_window:
            agg.retract_from(self._answer, self._cached.popleft())
        agg.merge_into(self._answer, batch_output)
        self._cached.append(batch_output)
        return dict(self._answer)

    def answer(self) -> dict[Key, Any]:
        """The current window answer (per-key accumulator values)."""
        return dict(self._answer)

    def finalized_answer(self) -> dict[Key, Any]:
        """The answer with accumulators finalized (e.g. means from sums)."""
        return {k: self.aggregator.finalize(v) for k, v in self._answer.items()}
