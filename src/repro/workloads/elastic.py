"""Workload for the resource-elasticity experiment (Figure 12).

"We continuously increase the number of input data tuples and data
distribution (i.e., number of unique keys) over time" — then decrease
them.  This source ramps *both* dials independently: the arrival rate
follows any :class:`ArrivalProcess`, and the active key universe grows
or shrinks linearly between two sizes over a configurable span.  Keys
are drawn near-uniformly from the currently active universe so the
key-count statistic the accumulator reports tracks the ramp closely.
"""

from __future__ import annotations

import numpy as np

from ..core.tuples import StreamTuple
from .arrival import ArrivalProcess
from .source import StreamSource

__all__ = ["ElasticWorkloadSource"]


class ElasticWorkloadSource(StreamSource):
    """Rate ramp x key-universe ramp, for driving the auto-scaler."""

    name = "elastic"

    def __init__(
        self,
        arrival: ArrivalProcess,
        *,
        keys_start: int = 200,
        keys_end: int = 2_000,
        t0: float = 0.0,
        t1: float = 60.0,
        seed: int = 0,
    ) -> None:
        if keys_start < 1 or keys_end < 1:
            raise ValueError("key universe sizes must be >= 1")
        if t1 <= t0:
            raise ValueError("key ramp needs t1 > t0")
        self.arrival = arrival
        self.keys_start = keys_start
        self.keys_end = keys_end
        self.t0 = t0
        self.t1 = t1
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def active_keys(self, t: float) -> int:
        """Size of the key universe at time ``t`` (linear ramp)."""
        if t <= self.t0:
            return self.keys_start
        if t >= self.t1:
            return self.keys_end
        frac = (t - self.t0) / (self.t1 - self.t0)
        return max(1, round(self.keys_start + frac * (self.keys_end - self.keys_start)))

    def reset(self) -> None:
        self.arrival.reset()
        self._rng = np.random.default_rng(self.seed)

    def tuples_between(self, t0: float, t1: float) -> list[StreamTuple]:
        count = self.arrival.count_between(t0, t1)
        if count == 0:
            return []
        timestamps = self.arrival.timestamps(t0, t1, count)
        universe = self.active_keys((t0 + t1) / 2)
        ranks = self._rng.integers(0, universe, size=count)
        return [
            StreamTuple(ts=float(ts), key=int(rank), value=None)
            for ts, rank in zip(timestamps, ranks)
        ]
