"""Experiment harness: stability probing and max-throughput search.

Figure 11 reports, per technique, "the maximum throughput achieved ...
before activating back-pressure".  The harness reproduces that
operational definition: run the engine at a candidate ingestion rate,
ask the back-pressure monitor whether the run stayed stable, and
binary-search the highest stable rate.

Sources are built through a factory taking the mean rate, so any
arrival *shape* (constant, sinusoidal, ...) can be scaled up and down
while preserving its variability.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..engine.engine import EngineConfig, MicroBatchEngine, RunResult
from ..partitioners.base import Partitioner
from ..partitioners.registry import make_partitioner
from ..queries.base import Query
from ..workloads.source import StreamSource

__all__ = ["ThroughputSearch", "ThroughputResult", "run_at_rate"]

SourceFactory = Callable[[float], StreamSource]


def run_at_rate(
    partitioner: Partitioner,
    query: Query,
    config: EngineConfig,
    source_factory: SourceFactory,
    rate: float,
    num_batches: int,
    *,
    backend: str | None = None,
) -> RunResult:
    """One engine run with a freshly-built source at ``rate``.

    ``backend`` overrides ``config.executor`` for this run — backends
    are bit-identical by contract, so probing under "parallel" answers
    the same stability question while exercising the pool.
    """
    if backend is not None and backend != config.executor:
        config = replace(config, executor=backend)
    engine = MicroBatchEngine(partitioner, query, config)
    return engine.run(source_factory(rate), num_batches)


@dataclass(frozen=True, slots=True)
class ThroughputResult:
    """Outcome of a max-throughput search for one technique."""

    technique: str
    max_rate: float
    probes: int
    lo: float
    hi: float

    @property
    def tuples_per_second(self) -> float:
        return self.max_rate


@dataclass
class ThroughputSearch:
    """Binary search for the highest back-pressure-free ingestion rate."""

    query: Query
    config: EngineConfig
    source_factory: SourceFactory
    num_batches: int = 5
    #: relative precision of the search (stop when hi/lo - 1 < tolerance)
    tolerance: float = 0.08
    #: hard probe cap (each probe is one full engine run)
    max_probes: int = 12
    initial_rate: float = 5_000.0
    #: execution backend override for every probe (None = config's own)
    backend: Optional[str] = None

    def stable_at(self, partitioner: Partitioner, rate: float) -> bool:
        result = run_at_rate(
            partitioner,
            self.query,
            self.config,
            self.source_factory,
            rate,
            self.num_batches,
            backend=self.backend,
        )
        return result.stable

    def find_max_rate(self, technique: str | Partitioner) -> ThroughputResult:
        """Highest stable mean rate for ``technique``.

        Phase 1 brackets the stability boundary by doubling/halving from
        ``initial_rate``; phase 2 bisects to ``tolerance``.
        """
        name = technique if isinstance(technique, str) else technique.name
        probes = 0

        def probe(rate: float) -> bool:
            nonlocal probes
            probes += 1
            # Fresh partitioner per probe: no state leaks across rates.
            part = (
                make_partitioner(technique)
                if isinstance(technique, str)
                else technique
            )
            return self.stable_at(part, rate)

        rate = self.initial_rate
        if probe(rate):
            lo, hi = rate, rate * 2
            while probes < self.max_probes and probe(hi):
                lo, hi = hi, hi * 2
        else:
            hi = rate
            lo = rate / 2
            while probes < self.max_probes and not probe(lo):
                hi, lo = lo, lo / 2
                if lo < 1:
                    return ThroughputResult(name, 0.0, probes, 0.0, hi)
        while probes < self.max_probes and (hi - lo) / lo > self.tolerance:
            mid = (lo + hi) / 2
            if probe(mid):
                lo = mid
            else:
                hi = mid
        return ThroughputResult(name, lo, probes, lo, hi)

    def compare(self, techniques: list[str]) -> list[ThroughputResult]:
        """Max throughput of each technique, in the given order."""
        return [self.find_max_rate(t) for t in techniques]
