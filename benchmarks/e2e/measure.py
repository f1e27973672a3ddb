"""One untraced run through ``repro.run`` and one traced run from outside.

The untraced repeat is what a user does: hand ``repro.run`` a source
and a query and wait.  Everything it reports is observed from outside —
the source's pull stamps and the returned ``RunResult``.

The traced repeat re-implements one heartbeat with the layers' public
functions, in the order the serial driver calls them, and records a
span around each call.  It exists only until the program emits these
spans itself; the metric names derived from it stay.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterator, Optional

import repro
from repro import BatchInfo, evaluate_partition, make_partitioner
from repro.core import EarlyReleaseController
from repro.engine import (
    BatchExecution,
    LatenessMonitor,
    Receiver,
    StateStore,
    WindowedAggregator,
    derive_task_seed,
    make_executor,
    run_map_task,
    run_reduce_task,
    shuffle_map_results,
)

from reference import Checker
from source import MaterialisedSource
from workloads import WARMUP_BATCHES, Workload

__all__ = [
    "Span",
    "SpanLog",
    "Totals",
    "UntracedRepeat",
    "traced_repeat",
    "untraced_repeat",
]


@dataclass
class UntracedRepeat:
    #: ``repro.run`` entry -> the engine's pull of the first timed batch
    setup_s: float
    #: tuples handed out for the timed batches
    tuples: int
    #: pull of the first timed batch -> ``repro.run`` returning
    wall_s: float
    #: per timed batch: its pull -> the next pull (or the return)
    batch_walls: list[float]
    model_load_mean: float
    early_release_miss_rate: float

    @property
    def tuples_per_s(self) -> float:
        return self.tuples / self.wall_s


def untraced_repeat(
    workload: Workload,
    source: MaterialisedSource,
    checker: Checker,
    seed: int,
    *,
    serial: bool = False,
) -> UntracedRepeat:
    query = workload.make_query()
    config = workload.engine_config(seed, serial=serial)
    source.take_pulls()
    entered = time.perf_counter()
    result = repro.run(
        source,
        query,
        partitioner="prompt",
        num_batches=workload.num_batches,
        engine=config,
    )
    returned = time.perf_counter()
    pulls = source.take_pulls()
    if len(pulls) != workload.num_batches:
        raise RuntimeError(
            f"expected one pull per batch ({workload.num_batches}), "
            f"saw {len(pulls)}"
        )
    stamps = [p.at for p in pulls] + [returned]
    checker.check(
        pulls,
        result.window_answers,
        result.stats.total_tuples,
        result.lateness.overdue if result.lateness is not None else 0,
    )
    w = WARMUP_BATCHES
    return UntracedRepeat(
        setup_s=stamps[w] - entered,
        tuples=sum(p.count for p in pulls[w:]),
        wall_s=returned - stamps[w],
        batch_walls=[b - a for a, b in zip(stamps[w:], stamps[w + 1 :])],
        model_load_mean=result.stats.mean_load(),
        early_release_miss_rate=result.early_release.miss_rate(),
    )


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    batch: int
    parent: Optional[int]
    start: float
    end: float = 0.0


class SpanLog:
    """Spans kept in memory for the whole invocation, dumped at exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def open(self, name: str, batch: int, parent: Optional[Span] = None) -> Span:
        span = Span(
            len(self.spans),
            name,
            batch,
            None if parent is None else parent.span_id,
            time.perf_counter(),
        )
        self.spans.append(span)
        return span

    @staticmethod
    def close(span: Span) -> None:
        span.end = time.perf_counter()

    @contextmanager
    def span(self, name: str, batch: int, parent: Span) -> Iterator[Span]:
        span = self.open(name, batch, parent)
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    def seconds_by_name(self, first_batch: int) -> dict[str, float]:
        """Total duration per span name over batches >= ``first_batch``."""
        total: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.batch >= first_batch:
                total[span.name] += span.end - span.start
        return total

    def dump(self, path: Path, **header: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump({**header, "spans": [asdict(s) for s in self.spans]}, out)


#: What one traced repeat hands back besides its spans — sums over the
#: timed batches: counts, and seconds the spans do not carry (worker-side
#: task walls, the partitioner's own buffer/plan split, Algorithm 3
#: re-invoked); plus the whole-repeat lateness and dispatch counters.
Totals = dict[str, float]


def traced_repeat(
    workload: Workload,
    source: MaterialisedSource,
    checker: Checker,
    seed: int,
    log: SpanLog,
) -> Totals:
    config = workload.engine_config(seed)
    query = workload.make_query()
    reducers = config.num_reducers
    partitioner = make_partitioner("prompt")
    partitioner.reset()
    allocate = partitioner.reduce_allocation()
    lateness = (
        LatenessMonitor(config.lateness) if config.lateness is not None else None
    )
    receiver = Receiver(
        source,
        early_release=EarlyReleaseController(config.early_release),
        use_cutoff=partitioner.uses_accumulator,
        lateness=lateness,
    )
    receiver.reset()
    window_batches = query.window.batches_per_window(config.batch_interval)
    windows = WindowedAggregator(query.aggregator, window_batches)
    store = StateStore()
    backend = (
        make_executor(
            "parallel", max_workers=workload.parallel_workers, run_seed=seed
        )
        if workload.parallel_workers
        else None
    )
    totals: Totals = defaultdict(float)
    answers = []
    processed = 0
    source.take_pulls()
    run = log.open("run", -1)
    try:
        for k in range(workload.num_batches):
            info = BatchInfo(
                k, k * config.batch_interval, (k + 1) * config.batch_interval
            )
            beat = log.open("heartbeat", k, run)
            with log.span("engine.receiver.collect", k, beat):
                tuples, _ = receiver.collect(info)
            with log.span("partitioners.partition", k, beat):
                batch = partitioner.partition(tuples, config.num_blocks, info)
            split = set(batch.split_keys)
            if backend is not None:
                with log.span("engine.executors.run_batch", k, beat):
                    execution = backend.run_batch(
                        batch, query, partitioner, reducers, config.cost_model
                    )
            else:
                map_results = []
                for block in batch.blocks:
                    with log.span("engine.tasks.map", k, beat):
                        map_results.append(
                            run_map_task(
                                block,
                                query,
                                allocate,
                                reducers,
                                {key for key in split if key in block},
                                config.cost_model,
                                derive_task_seed(seed, k, "map", block.index),
                            )
                        )
                with log.span("engine.tasks.shuffle", k, beat):
                    buckets = shuffle_map_results(map_results, reducers)
                reduce_results = []
                for bucket in buckets:
                    with log.span("engine.tasks.reduce", k, beat):
                        reduce_results.append(
                            run_reduce_task(
                                bucket,
                                query.aggregator,
                                config.cost_model,
                                derive_task_seed(
                                    seed, k, "reduce", bucket.bucket_index
                                ),
                            )
                        )
                execution = BatchExecution(map_results, reduce_results)
            output = execution.batch_output()
            with log.span("engine.state.put_evict", k, beat):
                store.put(k, output)
            with log.span("engine.windows.add_batch", k, beat):
                answer = windows.add_batch(output)
            if k >= window_batches:
                with log.span("engine.state.put_evict", k, beat):
                    store.evict_through(k - window_batches)
            answers.append(answer)
            processed += len(tuples)
            if k >= WARMUP_BATCHES:
                # Counts and re-invocations the spans cannot carry; kept
                # in a span of their own so the traced wall excludes them.
                with log.span("bench.diagnostics", k, beat):
                    quality = evaluate_partition(batch)
                    totals["bsi"] += quality.bsi
                    totals["bci"] += quality.bci
                    totals["ksr"] += quality.ksr
                    totals["mpi"] += quality.mpi
                    totals["batches"] += 1
                    totals["tuples"] += source.pulls[-1].count
                    totals["distinct_keys"] += len(batch.distinct_keys())
                    totals["split_keys"] += len(split)
                    totals["buffer_s"] += batch.buffer_elapsed
                    totals["plan_s"] += batch.plan_elapsed
                    for m in execution.map_results:
                        block_split = {c.key for c in m.clusters if c.key in split}
                        started = time.perf_counter()
                        allocate(m.clusters, block_split, reducers)
                        totals["allocate_s"] += time.perf_counter() - started
                        totals["clusters"] += len(m.clusters)
                    weights = [r.input_weight for r in execution.reduce_results]
                    totals["bucket_imbalance"] += max(weights) - sum(weights) / len(
                        weights
                    )
                    totals["fragments"] += sum(
                        r.fragment_count for r in execution.reduce_results
                    )
                    totals["task_wall_s"] += sum(execution.map_wall_seconds) + sum(
                        execution.reduce_wall_seconds
                    )
                    totals["payload_bytes"] += execution.payload_bytes
                    totals["output_keys"] += len(output)
                    totals["answer_keys"] += len(answer)
            log.close(beat)
    finally:
        if backend is not None:
            backend.close()
        log.close(run)
    if backend is not None:
        totals["context_bytes"] = backend.context_bytes
        totals["context_installs"] = backend.context_installs
        totals["task_attempts"] = backend.task_attempts
        totals["task_retries"] = backend.task_retries
        totals["fallbacks"] = backend.fallbacks
    if lateness is not None:
        totals["late_accepted"] = lateness.late_accepted
        totals["overdue"] = lateness.overdue
    checker.check(source.take_pulls(), answers, processed, int(totals["overdue"]))
    return totals
