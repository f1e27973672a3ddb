"""The four benchmark workloads: inputs, queries and engine shapes.

Inputs come from the repo's own generators, seeded by ``--seed``; the
engine is configured as a user would configure it — ``EngineConfig``
defaults plus *shape* fields only.  No opt-in performance knob
(``ingest_kernel``, ``pipeline_depth``, ``streaming_dispatch``,
``resident_context``) is set, so a later change that flips a default or
deletes a path shows up in these numbers and one that adds a knob does
not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro import EngineConfig, Query
from repro.core.tuples import StreamTuple
from repro.engine import LatenessConfig
from repro.queries import debs_query1, wordcount_query
from repro.workloads import debs_taxi_source, synd_source
from repro.workloads.source import StreamSource

__all__ = ["WORKLOADS", "WARMUP_BATCHES", "Workload"]

#: leading batches of every repeat that count as set-up, not throughput
WARMUP_BATCHES = 3

BATCH_INTERVAL = 1.0
NUM_BLOCKS = 8
NUM_REDUCERS = 8

Input = tuple[list[StreamTuple], list[float]]


def _drain(source: StreamSource, num_batches: int) -> list[StreamTuple]:
    tuples: list[StreamTuple] = []
    for k in range(num_batches):
        tuples.extend(
            source.tuples_between(k * BATCH_INTERVAL, (k + 1) * BATCH_INTERVAL)
        )
    return tuples


def _synd(exponent: float, rate: float) -> Callable[[int, float, int], Input]:
    def generate(seed: int, scale: float, num_batches: int) -> Input:
        source = synd_source(
            exponent, num_keys=100_000, rate=rate * scale, seed=seed
        )
        tuples = _drain(source, num_batches)
        return tuples, [t.ts for t in tuples]

    return generate


#: share of taxi tuples that arrive late, and their delay distribution
DELAYED_FRACTION = 0.10
MEAN_DELAY = 0.08
DELAY_CAP = 0.5
#: the delay contract handed to the engine for the late workload
MAX_DELAY = 0.2


def _taxi_late(seed: int, scale: float, num_batches: int) -> Input:
    source = debs_taxi_source(
        num_taxis=20_000, rate=15_000.0 * scale, activity_skew=0.8, seed=seed
    )
    tuples = _drain(source, num_batches)
    rng = np.random.default_rng(seed)
    delayed = rng.random(len(tuples)) < DELAYED_FRACTION
    delays = np.minimum(rng.exponential(MEAN_DELAY, len(tuples)), DELAY_CAP)
    ingest = np.fromiter((t.ts for t in tuples), float, len(tuples))
    ingest += np.where(delayed, delays, 0.0)
    order = np.argsort(ingest, kind="stable")
    return [tuples[i] for i in order.tolist()], ingest[order].tolist()


def _one(value: Any) -> int:
    return 1


def _fare(value: Any) -> float:
    return value[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    num_batches: int
    generate: Callable[[int, float, int], Input]
    make_query: Callable[[], Query]
    #: what the *reference* folds per tuple and over how many batches —
    #: stated here independently of the repo's query objects
    reference_value: Callable[[Any], Any]
    reference_window: int
    exact_answers: bool
    max_delay: Optional[float] = None
    parallel_workers: int = 0

    def make_input(self, seed: int, scale: float) -> Input:
        return self.generate(seed, scale, self.num_batches)

    def engine_config(self, seed: int, *, serial: bool = False) -> EngineConfig:
        fields: dict[str, Any] = dict(
            batch_interval=BATCH_INTERVAL,
            num_blocks=NUM_BLOCKS,
            num_reducers=NUM_REDUCERS,
            run_seed=seed,
        )
        if self.max_delay is not None:
            fields["lateness"] = LatenessConfig(max_delay=self.max_delay)
        if self.parallel_workers and not serial:
            fields["executor"] = "parallel"
            fields["executor_workers"] = self.parallel_workers
        return EngineConfig(**fields)


def _wordcount() -> Query:
    return wordcount_query(window_length=5.0)


def _taxi_q1() -> Query:
    return debs_query1(time_scale=1 / 600)


_SKEW = _synd(1.4, 50_000.0)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="synd_skew_wc",
            why="SynD Zipf z=1.4: few distinct keys per batch, so per-tuple "
            "work (receiver hand-off, Algorithm 1 chain appends) dominates",
            num_batches=24,
            generate=_SKEW,
            make_query=_wordcount,
            reference_value=_one,
            reference_window=5,
            exact_answers=True,
        ),
        Workload(
            name="synd_flat_wc",
            why="SynD z=0.6: almost every tuple is its own key, so per-key "
            "work (CountTree, Algorithm 2 plan, Map sort, Algorithm 3, "
            "shuffle, window merge) dominates",
            num_batches=24,
            generate=_synd(0.6, 10_000.0),
            make_query=_wordcount,
            reference_value=_one,
            reference_window=5,
            exact_answers=True,
        ),
        Workload(
            name="taxi_q1_late",
            why="DEBS taxi float sums over a 12-batch window with 10% late "
            "tuples: window retraction, state put/evict, float accumulators "
            "and the lateness admit path with a non-zero overdue count",
            num_batches=24,
            generate=_taxi_late,
            make_query=_taxi_q1,
            reference_value=_fare,
            reference_window=12,
            exact_answers=False,
            max_delay=MAX_DELAY,
        ),
        Workload(
            name="synd_skew_wc_par",
            why="first half of synd_skew_wc's input through the parallel "
            "executor (2 workers): isolates pickle, dispatch, context "
            "broadcast and result merge; synd_skew_wc is its serial baseline",
            num_batches=12,
            generate=_SKEW,
            make_query=_wordcount,
            reference_value=_one,
            reference_window=5,
            exact_answers=True,
            parallel_workers=2,
        ),
    )
}
