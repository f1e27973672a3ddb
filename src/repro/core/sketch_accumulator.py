"""Sketch-backed micro-batch ordering (tuple-at-a-time style stats).

An alternative to Algorithm 1's CountTree: instead of a balanced BST of
(approximate) counts with budgeted repositioning, keep a
:class:`~repro.core.sketches.SpaceSavingSketch` of the hottest keys and
leave everything else unordered.  This is how the tuple-at-a-time
systems in the paper's related work track skew (Section 9) — constant
statistics state and no tree rebalancing — at the cost of a *partially*
sorted key list: only the sketch's tracked heavy hitters are ordered;
the long tail is emitted in arrival order.

Algorithm 2 tolerates that (the split pass scans the whole list and
small keys are placement-insensitive), so this accumulator trades
partition quality on mid-weight keys for per-tuple cheapness — the
sketch-vs-tree ablation quantifies the trade.  The interval's chains
come from :func:`repro.core.kernels.accumulate_batch`'s column build;
this module decides only their order.
"""

from __future__ import annotations

from .sketches import SpaceSavingSketch
from .tuples import Key

__all__ = ["SketchMicroBatchAccumulator"]


class SketchMicroBatchAccumulator:
    """Order an interval's keys by Space-Saving statistics, not a CountTree."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.sketch = SpaceSavingSketch(capacity)

    def order(
        self, keys_col: list[Key], code_of: dict[Key, int], counts
    ) -> tuple[list[int], list[int]]:
        """Tracked counts by key code, and the key codes in emission order.

        ``keys_col`` is the interval's key column in arrival order,
        ``code_of`` numbers its keys in first-appearance order and
        ``counts`` holds each code's exact tuple count.  Heavy hitters
        come first, in sketch order (descending estimate), tracked at
        their estimate; the untracked tail follows in first-appearance
        order, tracked at its exact count.
        """
        sketch = self.sketch
        sketch.clear()
        add = sketch.add
        for key in keys_col:
            add(key)
        tracked = counts.tolist()
        head = []
        for key, estimate in sketch.items():
            code = code_of[key]
            tracked[code] = estimate
            head.append(code)
        in_head = set(head)
        return tracked, head + [c for c in range(len(tracked)) if c not in in_head]
