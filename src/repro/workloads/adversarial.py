"""Adversarial hot-key flips: the head of the distribution moves mid-window.

Adaptive partitioners learn "key X is hot" from history (sketches, EWMA
rate tables, routing tables).  The adversarial axis invalidates exactly
that knowledge: every ``flip_interval`` seconds the identities carrying
the top ``hot_ranks`` of the popularity distribution are swapped with a
rotating window of previously-cold identities.  A technique that keeps
splitting (or keeps isolated) yesterday's hot keys pays for it; a
technique that re-detects quickly recovers within a batch or two.

The swap is a true permutation of the identity space — total frequency
mass and instantaneous cardinality are unchanged, only *which* keys are
hot flips — so quality differences between techniques are attributable
to adaptation speed alone.  ``flip_interval`` defaults to a fraction of
a typical batch interval, so flips land mid-window, not aligned to
batch boundaries.
"""

from __future__ import annotations

import numpy as np

from ..core.tuples import StreamTuple
from .arrival import ArrivalProcess, ConstantRate
from .source import DatasetProperties, StreamSource
from .zipf import ZipfSampler

__all__ = ["HotKeyFlipSource", "hot_key_flip_source"]


class HotKeyFlipSource(StreamSource):
    """Zipf stream whose hottest identities rotate adversarially."""

    def __init__(
        self,
        name: str = "hot-flip",
        *,
        arrival: ArrivalProcess,
        num_keys: int,
        exponent: float,
        flip_interval: float,
        hot_ranks: int = 4,
        seed: int = 0,
        dataset: DatasetProperties | None = None,
    ) -> None:
        if flip_interval <= 0:
            raise ValueError("flip_interval must be positive")
        if hot_ranks < 1:
            raise ValueError("hot_ranks must be >= 1")
        if num_keys <= 2 * hot_ranks:
            raise ValueError("num_keys must exceed 2 * hot_ranks")
        self.name = name
        self.arrival = arrival
        self.seed = seed
        self.flip_interval = flip_interval
        self.hot_ranks = hot_ranks
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

    def _identity(self, rank: int, phase: int) -> int:
        """Phase-``phase`` permutation of the identity space.

        The ``hot_ranks`` head ranks map into a rotating window of the
        tail; the tail identities displaced by that window map back onto
        the head ids.  Bijective for every phase, identity elsewhere.
        """
        m = self.hot_ranks
        tail = self._sampler.num_keys - m
        offset = (phase * m) % tail
        if rank < m:
            return m + (offset + rank) % tail
        shifted = (rank - m - offset) % tail
        if shifted < m:
            return shifted
        return rank

    def tuples_between(self, t0: float, t1: float) -> list[StreamTuple]:
        count = self.arrival.count_between(t0, t1)
        if count == 0:
            return []
        timestamps = self.arrival.timestamps(t0, t1, count)
        ranks = self._sampler.sample(count)
        phases = np.floor(np.asarray(timestamps) / self.flip_interval).astype(np.int64)
        identity = self._identity
        return [
            StreamTuple(ts=float(ts), key=f"a{identity(int(rank), int(phase))}", value=None)
            for ts, rank, phase in zip(timestamps, ranks, phases)
        ]


def hot_key_flip_source(
    *,
    rate: float = 5_000.0,
    num_keys: int = 2_000,
    exponent: float = 1.4,
    flip_interval: float = 0.4,
    hot_ranks: int = 4,
    arrival: ArrivalProcess | None = None,
    seed: int = 0,
) -> HotKeyFlipSource:
    """An adversarial stream flipping its hot keys every 0.4s by default."""
    if arrival is None:
        arrival = ConstantRate(rate)
    props = DatasetProperties(
        name="HotFlip",
        paper_size="n/a",
        paper_cardinality=str(num_keys),
        scaled_cardinality=num_keys,
        description="Zipf stream with adversarial mid-window hot-key flips.",
    )
    return HotKeyFlipSource(
        name=f"hot-flip-z{exponent:g}",
        arrival=arrival,
        num_keys=num_keys,
        exponent=exponent,
        flip_interval=flip_interval,
        hot_ranks=hot_ranks,
        seed=seed,
        dataset=props,
    )
