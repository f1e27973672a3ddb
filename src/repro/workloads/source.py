"""Stream source interface and the generic keyed generator.

A source produces, for any simulated interval, the list of tuples that
arrived in it — timestamps sorted (the paper's arrival-order assumption,
Section 2.1), keys drawn from a configurable popularity distribution,
values from a dataset-specific sampler.  Determinism: a source is fully
determined by its seed; ``reset()`` restarts the exact same stream.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.tuples import StreamTuple
from .arrival import ArrivalProcess
from .zipf import ZipfSampler

__all__ = ["DatasetProperties", "StreamSource", "ZipfKeyedSource"]


@dataclass(frozen=True, slots=True)
class DatasetProperties:
    """Table 1 metadata: the paper's dataset vs. our scaled stand-in."""

    name: str
    paper_size: str
    paper_cardinality: str
    scaled_cardinality: int
    description: str


class StreamSource(abc.ABC):
    """An infinite, deterministic, replayable tuple stream."""

    name: str = "source"

    @abc.abstractmethod
    def tuples_between(self, t0: float, t1: float) -> list[StreamTuple]:
        """Tuples with timestamps in ``[t0, t1)``, sorted by timestamp."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Rewind to the start of the stream (same seed, same tuples)."""

    def properties(self) -> Optional[DatasetProperties]:
        """Table 1 metadata, when this source models a paper dataset."""
        return None


# A value sampler turns (rng, count) into ``count`` tuple values.
ValueSampler = Callable[[np.random.Generator, int], Sequence]


class ZipfKeyedSource(StreamSource):
    """Arrival process x Zipf(-Mandelbrot) keys x dataset value sampler.

    All five paper datasets are specializations of this generator —
    they differ in key-space size, skew exponent, key naming, and value
    schema (see the sibling dataset modules).
    """

    def __init__(
        self,
        name: str,
        arrival: ArrivalProcess,
        num_keys: int,
        exponent: float,
        *,
        shift: float = 0.0,
        seed: int = 0,
        key_formatter: Callable[[int], object] | None = None,
        value_sampler: ValueSampler | None = None,
        dataset: DatasetProperties | None = None,
    ) -> None:
        self.name = name
        self.arrival = arrival
        self.seed = seed
        self._sampler = ZipfSampler(num_keys, exponent, shift=shift, seed=seed)
        self._value_rng = np.random.default_rng(seed + 0x5EED)
        self._key_formatter = key_formatter
        self._value_sampler = value_sampler
        self._dataset = dataset
        # Key identity cache: formatting (e.g. "w123") once per rank.
        self._key_cache: dict[int, object] = {}

    @property
    def num_keys(self) -> int:
        return self._sampler.num_keys

    @property
    def exponent(self) -> float:
        return self._sampler.exponent

    def properties(self) -> Optional[DatasetProperties]:
        return self._dataset

    def reset(self) -> None:
        self.arrival.reset()
        self._sampler.reseed(self.seed)
        self._value_rng = np.random.default_rng(self.seed + 0x5EED)

    def _key_for(self, rank: int) -> object:
        if self._key_formatter is None:
            return int(rank)
        key = self._key_cache.get(rank)
        if key is None:
            key = self._key_formatter(rank)
            self._key_cache[rank] = key
        return key

    def tuples_between(self, t0: float, t1: float) -> list[StreamTuple]:
        count = self.arrival.count_between(t0, t1)
        if count == 0:
            return []
        timestamps = self.arrival.timestamps(t0, t1, count)
        ranks = self._sampler.sample(count)
        if self._value_sampler is None:
            values: Sequence = [None] * count
        else:
            values = self._value_sampler(self._value_rng, count)
            if len(values) != count:
                raise AssertionError(
                    f"value sampler produced {len(values)} values for {count} tuples"
                )
        key_for = self._key_for
        return [
            StreamTuple(ts=float(ts), key=key_for(int(rank)), value=value)
            for ts, rank, value in zip(timestamps, ranks, values)
        ]
