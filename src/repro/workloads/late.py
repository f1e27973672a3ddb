"""Delayed delivery: a source wrapper that reorders tuples in transit.

Real streams violate perfect timestamp order: network and broker hops
delay some tuples so they are *ingested* after later-stamped ones.  The
paper assumes the delay is bounded (Section 2.1); this wrapper produces
exactly such a stream from any base source — each tuple's ingestion
time is its source timestamp plus a random delay, truncated-exponential
up to ``max_delay`` for a configurable fraction of tuples — so the
lateness contract (:mod:`repro.engine.lateness`) can be exercised.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core.tuples import StreamTuple
from .source import StreamSource

__all__ = ["DelayedSource"]


class DelayedSource(StreamSource):
    """Deliver a base source's tuples by (timestamp + random delay)."""

    def __init__(
        self,
        base: StreamSource,
        *,
        max_delay: float,
        delayed_fraction: float = 0.1,
        mean_delay: float | None = None,
        seed: int = 0,
    ) -> None:
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        if not 0.0 <= delayed_fraction <= 1.0:
            raise ValueError("delayed_fraction must be in [0, 1]")
        self.base = base
        self.name = f"{base.name}+delay"
        self.max_delay = max_delay
        self.delayed_fraction = delayed_fraction
        self.mean_delay = mean_delay if mean_delay is not None else max_delay / 3
        self.seed = seed
        self._rng = np.random.default_rng(seed + 0xDE1A)
        # tuples already fetched from base but not yet delivered
        self._pending: list[tuple[float, int, StreamTuple]] = []
        self._seq = 0
        self._fetched_through = 0.0

    def reset(self) -> None:
        self.base.reset()
        self._rng = np.random.default_rng(self.seed + 0xDE1A)
        self._pending = []
        self._seq = 0
        self._fetched_through = 0.0

    def _delay_for(self, count: int) -> np.ndarray:
        delays = np.zeros(count)
        if self.max_delay > 0 and self.delayed_fraction > 0:
            mask = self._rng.random(count) < self.delayed_fraction
            raw = self._rng.exponential(self.mean_delay, size=count)
            delays[mask] = np.minimum(raw[mask], self.max_delay)
        return delays

    def tuples_between(self, t0: float, t1: float) -> list[StreamTuple]:
        """Tuples whose *ingestion* time falls in [t0, t1).

        Ingestion order is returned (sorted by ingestion time); the
        tuples keep their original source timestamps, so a consumer can
        observe the disorder.
        """
        # Fetch base tuples stamped up to t1 (anything later cannot be
        # ingested before t1 since delays are non-negative).
        if t1 > self._fetched_through:
            fresh = self.base.tuples_between(self._fetched_through, t1)
            delays = self._delay_for(len(fresh))
            for t, d in zip(fresh, delays):
                heapq.heappush(self._pending, (t.ts + float(d), self._seq, t))
                self._seq += 1
            self._fetched_through = t1
        out: list[StreamTuple] = []
        while self._pending and self._pending[0][0] < t1:
            ingestion, _, t = heapq.heappop(self._pending)
            if ingestion >= t0:
                out.append(t)
            else:
                # Should not happen when intervals advance contiguously.
                out.append(t)
        return out
