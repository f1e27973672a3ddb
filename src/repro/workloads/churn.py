"""Key churn: a Zipf-keyed stream whose vocabulary drifts over time.

Real streams (trending hashtags, session ids, rotating device fleets)
do not draw from a fixed key universe: old keys fall out of use and new
ones appear continuously.  This axis stresses everything that memoizes
per-key state — candidate caches, sketches, routing tables — because
the *lifetime* vocabulary grows without bound even though the *instant*
vocabulary stays a constant ``num_keys``.

The generator keeps the Zipf popularity shape fixed over ranks and
shifts the rank→identity mapping by ``drift_keys`` identities every
``churn_interval`` seconds (computed per tuple from its own timestamp,
so drift lands mid-batch too): after each shift, the ``drift_keys``
least popular identities retire and the same number of never-seen
identities enter at the bottom of the popularity order.
"""

from __future__ import annotations

import numpy as np

from ..core.tuples import StreamTuple
from .arrival import ArrivalProcess, ConstantRate
from .source import DatasetProperties, StreamSource
from .zipf import ZipfSampler

__all__ = ["KeyChurnSource", "key_churn_source"]


class KeyChurnSource(StreamSource):
    """Zipf keys whose identities slide as the stream progresses."""

    def __init__(
        self,
        name: str = "churn",
        *,
        arrival: ArrivalProcess,
        num_keys: int,
        exponent: float,
        churn_interval: float,
        drift_keys: int | None = None,
        seed: int = 0,
        dataset: DatasetProperties | None = None,
    ) -> None:
        if churn_interval <= 0:
            raise ValueError("churn_interval must be positive")
        if drift_keys is not None and drift_keys < 1:
            raise ValueError("drift_keys must be >= 1 when set")
        self.name = name
        self.arrival = arrival
        self.seed = seed
        self.churn_interval = churn_interval
        self.drift_keys = drift_keys if drift_keys is not None else max(1, num_keys // 10)
        self._sampler = ZipfSampler(num_keys, exponent, seed=seed)
        self._dataset = dataset

    @property
    def num_keys(self) -> int:
        return self._sampler.num_keys

    @property
    def exponent(self) -> float:
        return self._sampler.exponent

    def properties(self) -> DatasetProperties | None:
        return self._dataset

    def reset(self) -> None:
        self.arrival.reset()
        self._sampler.reseed(self.seed)

    def tuples_between(self, t0: float, t1: float) -> list[StreamTuple]:
        count = self.arrival.count_between(t0, t1)
        if count == 0:
            return []
        timestamps = self.arrival.timestamps(t0, t1, count)
        ranks = self._sampler.sample(count)
        # identity = rank + epoch(ts) * drift: each epoch retires the
        # bottom `drift_keys` identities and admits as many fresh ones
        epochs = np.floor(np.asarray(timestamps) / self.churn_interval).astype(np.int64)
        drift = self.drift_keys
        return [
            StreamTuple(ts=float(ts), key=f"c{int(rank) + int(epoch) * drift}", value=None)
            for ts, rank, epoch in zip(timestamps, ranks, epochs)
        ]


def key_churn_source(
    *,
    rate: float = 5_000.0,
    num_keys: int = 2_000,
    exponent: float = 1.2,
    churn_interval: float = 2.0,
    drift_keys: int | None = None,
    arrival: ArrivalProcess | None = None,
    seed: int = 0,
) -> KeyChurnSource:
    """A churning Zipf stream (defaults: 10% vocabulary turnover / 2s)."""
    if arrival is None:
        arrival = ConstantRate(rate)
    props = DatasetProperties(
        name="Churn",
        paper_size="n/a",
        paper_cardinality="unbounded",
        scaled_cardinality=num_keys,
        description="Zipf stream with vocabulary drift (scenario axis).",
    )
    return KeyChurnSource(
        name=f"churn-z{exponent:g}",
        arrival=arrival,
        num_keys=num_keys,
        exponent=exponent,
        churn_interval=churn_interval,
        drift_keys=drift_keys,
        seed=seed,
        dataset=props,
    )
