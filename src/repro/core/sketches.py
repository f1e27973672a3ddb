"""Approximate frequency sketch: Space-Saving.

Prompt's accumulator (Algorithm 1) keeps *exact* per-key chains and
counts — affordable because micro-batches bound the state to one
interval.  The tuple-at-a-time systems Prompt is compared against
cannot do that: Gedik's partitioning for System S relies on *lossy
counting*, and the key-splitting family detects heavy hitters with
*Space-Saving*-style summaries (Section 9).  This reference
implementation serves two purposes:

- an alternative accumulator statistic for extreme-cardinality streams
  (millions of keys per batch) where even one HTable record per key is
  too much;
- the substrate for the sketch-vs-tree ablation
  (``benchmarks/test_ablations.py::test_ablation_sketch_vs_tree_statistics``)
  and the key-splitting rivals' heavy-hitter detection.

Its interface is ``add(key)``, ``estimate(key)``,
``heavy_hitters(threshold)``, ``items()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .tuples import Key, _order_token

__all__ = ["SpaceSavingSketch"]


@dataclass(slots=True)
class _Counter:
    key: Key
    count: int
    error: int  # maximum overestimation of ``count``
    token: str  # ``_order_token(key)``, formatted once per counter


class SpaceSavingSketch:
    """Metwally et al.'s Space-Saving: top-k frequencies in fixed space.

    Maintains at most ``capacity`` counters.  A new key evicts the
    current minimum counter and inherits its count as error bound,
    guaranteeing ``estimate(k) - true(k) <= min_count <= N / capacity``.

    Complexity note: hits are O(1); an eviction scans the counters for
    the minimum, O(capacity) (the classical stream-summary structure
    makes this O(1); the dict-scan variant keeps the code simple and is
    plenty for micro-batch-sized streams).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counters: dict[Key, _Counter] = {}
        self._total = 0

    def __len__(self) -> int:
        return len(self._counters)

    @property
    def total(self) -> int:
        """Number of additions observed."""
        return self._total

    def add(self, key: Key, count: int = 1) -> None:
        """Record ``count`` occurrences of ``key``."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._total += count
        counter = self._counters.get(key)
        if counter is not None:
            counter.count += count
            return
        token = _order_token(key)
        if len(self._counters) < self.capacity:
            self._counters[key] = _Counter(key=key, count=count, error=0, token=token)
            return
        # Evict the minimum counter; the newcomer inherits its count.
        victim = min(self._counters.values(), key=lambda c: (c.count, c.token))
        del self._counters[victim.key]
        self._counters[key] = _Counter(
            key=key, count=victim.count + count, error=victim.count, token=token
        )

    def estimate(self, key: Key) -> int:
        """Upper-bound frequency estimate (0 if never counted)."""
        counter = self._counters.get(key)
        return counter.count if counter is not None else 0

    def guaranteed(self, key: Key) -> int:
        """Lower-bound (guaranteed) frequency: count minus error."""
        counter = self._counters.get(key)
        return counter.count - counter.error if counter is not None else 0

    def error_bound(self) -> int:
        """Maximum possible overestimation for any tracked key."""
        if len(self._counters) < self.capacity:
            return 0
        return min(c.count for c in self._counters.values())

    def heavy_hitters(self, threshold: float) -> list[tuple[Key, int]]:
        """Keys *guaranteed* to exceed ``threshold`` fraction of the total."""
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        cut = threshold * self._total
        hitters = [c for c in self._counters.values() if c.count - c.error > cut]
        hitters.sort(key=lambda c: (-c.count, c.token))
        return [(c.key, c.count) for c in hitters]

    def items(self) -> Iterator[tuple[Key, int]]:
        """Tracked (key, estimate) pairs, descending by estimate."""
        ordered = sorted(self._counters.values(), key=lambda c: (-c.count, c.token))
        return iter([(c.key, c.count) for c in ordered])

    def clear(self) -> None:
        self._counters.clear()
        self._total = 0
