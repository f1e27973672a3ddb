"""Per-batch execution records and run-level statistics.

End-to-end latency is defined at batch granularity as
``batch interval + processing time`` (Section 1) — plus any queueing
delay when the pipeline falls behind (Cases II-IV of Figure 2).  These
records feed every evaluation figure: throughput (11), task-count
traces (12), reduce-latency distributions (13), and overhead (14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.elasticity import ScalingDecision

__all__ = ["BatchRecord", "RunStats", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for empty input.

    NaN inputs are rejected explicitly: ``sorted`` with NaNs present
    produces an ordering that depends on the input arrangement (NaN
    compares false against everything), which would make the "same"
    distribution yield different percentiles run to run.
    """
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if any(math.isnan(v) for v in values):
        raise ValueError("percentile input contains NaN")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True, slots=True)
class BatchRecord:
    """Everything measured about one batch's journey through the engine."""

    index: int
    t_start: float
    heartbeat: float           # processing cut-off (end of batch interval)
    ready_at: float            # when the partitioned batch was ready
    exec_start: float          # when processing actually began
    exec_finish: float
    processing_time: float
    tuple_count: int
    key_count: int
    map_tasks: int
    reduce_tasks: int
    map_durations: tuple[float, ...]
    reduce_durations: tuple[float, ...]
    bucket_weights: tuple[int, ...]
    #: driver-side wall-clock of the partitioning call, split by phase so
    #: Figure-14-style overhead benches can attribute Algorithm 1
    #: (buffering) vs. Algorithm 2 (planning) cost — real time, so both
    #: are excluded from equality like the other measured-seconds fields
    buffer_elapsed: float = field(default=0.0, compare=False)
    plan_elapsed: float = field(default=0.0, compare=False)
    scaling: Optional[ScalingDecision] = None
    #: which execution backend processed the batch.  Excluded from
    #: equality along with the wall-clock fields: two runs that differ
    #: only in *how* tasks were dispatched must compare equal record
    #: for record (the differential harness relies on this).
    backend: str = field(default="serial", compare=False)
    #: measured per-task wall-clock (real seconds, not simulated time)
    map_wall_seconds: tuple[float, ...] = field(default=(), compare=False)
    reduce_wall_seconds: tuple[float, ...] = field(default=(), compare=False)
    #: fault-tolerance tallies from the dispatch layer.  Excluded from
    #: equality like the other dispatch-side fields: a run that needed
    #: retries must still compare equal, record for record, to a clean
    #: run — that equality *is* the exactly-once evidence.
    task_attempts: int = field(default=0, compare=False)
    task_retries: int = field(default=0, compare=False)
    pool_resurrections: int = field(default=0, compare=False)
    #: driver→worker dispatch bytes (pickled payloads per launched
    #: attempt, and run-context broadcasts attributed to this batch).
    #: Dispatch-side observations like the tallies above, so likewise
    #: excluded from equality: a delta-dispatch run and a full-payload
    #: run must still compare equal record for record.
    payload_bytes: int = field(default=0, compare=False)
    context_installs: int = field(default=0, compare=False)
    context_bytes: int = field(default=0, compare=False)

    @property
    def partition_elapsed(self) -> float:
        """Total driver-side partitioning wall-clock (buffer + plan)."""
        return self.buffer_elapsed + self.plan_elapsed

    @property
    def batch_interval(self) -> float:
        return self.heartbeat - self.t_start

    @property
    def queue_delay(self) -> float:
        return self.exec_start - self.ready_at

    @property
    def latency(self) -> float:
        """End-to-end: from the first instant of the interval to output."""
        return self.exec_finish - self.t_start

    @property
    def load(self) -> float:
        """``W = processing_time / batch_interval`` (Algorithm 4)."""
        interval = self.batch_interval
        return self.processing_time / interval if interval > 0 else float("inf")

    @property
    def task_wall_seconds(self) -> float:
        """Total measured wall-clock spent in this batch's task bodies."""
        return sum(self.map_wall_seconds) + sum(self.reduce_wall_seconds)

    @property
    def max_reduce_time(self) -> float:
        return max(self.reduce_durations, default=0.0)

    @property
    def mean_reduce_time(self) -> float:
        if not self.reduce_durations:
            return 0.0
        return sum(self.reduce_durations) / len(self.reduce_durations)


@dataclass
class RunStats:
    """Aggregated view over a run's batch records."""

    batch_interval: float
    records: list[BatchRecord] = field(default_factory=list)

    def add(self, record: BatchRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # -- volumes ---------------------------------------------------------
    @property
    def total_tuples(self) -> int:
        return sum(r.tuple_count for r in self.records)

    def throughput(self) -> float:
        """Processed tuples per second of simulated time.

        The span runs from the first interval's start to whichever came
        last: the final heartbeat or the final batch's actual finish.
        Stopping at the heartbeat alone would divide the tuple count by
        less time than the run really took whenever processing lagged
        the intervals (queue delay > 0, Cases II-IV of Figure 2) —
        overstating throughput exactly for the overloaded runs where the
        number matters most.
        """
        if not self.records:
            return 0.0
        last = self.records[-1]
        span = max(last.exec_finish, last.heartbeat) - self.records[0].t_start
        return self.total_tuples / span if span > 0 else 0.0

    # -- latency / load ---------------------------------------------------
    def latencies(self) -> list[float]:
        return [r.latency for r in self.records]

    def loads(self) -> list[float]:
        return [r.load for r in self.records]

    def mean_latency(self) -> float:
        lat = self.latencies()
        return sum(lat) / len(lat) if lat else 0.0

    def p95_latency(self) -> float:
        return percentile(self.latencies(), 95)

    def max_queue_delay(self) -> float:
        return max((r.queue_delay for r in self.records), default=0.0)

    def mean_load(self, *, skip: int = 0) -> float:
        loads = [r.load for r in self.records[skip:]]
        return sum(loads) / len(loads) if loads else 0.0

    # -- stability --------------------------------------------------------
    def is_stable(self, *, skip: int = 0, max_queue_delay: float | None = None) -> bool:
        """Whether the run kept up: processing fit inside the intervals.

        Stability per Section 1: "The system is stable as long as
        processing time <= batch interval", operationalized as mean load
        <= 1 after warm-up and bounded queueing throughout.
        """
        if not self.records:
            return True
        limit = (
            max_queue_delay
            if max_queue_delay is not None
            else self.batch_interval  # at most one batch stuck behind
        )
        if self.max_queue_delay() > limit:
            return False
        return self.mean_load(skip=skip) <= 1.0

    # -- real wall-clock (execution backends) -----------------------------
    def total_task_wall_seconds(self) -> float:
        """Measured wall-clock summed over every task of every batch.

        This is *real* time spent in task bodies, regardless of where
        they ran; the serial-vs-parallel speedup microbenchmark compares
        it against end-to-end run wall-clock per backend.
        """
        return sum(r.task_wall_seconds for r in self.records)

    def backends_used(self) -> tuple[str, ...]:
        """Distinct execution backends that processed batches, sorted."""
        return tuple(sorted({r.backend for r in self.records}))

    # -- fault tolerance (parallel dispatch) ------------------------------
    def total_task_attempts(self) -> int:
        """Task attempts launched on worker pools, including retries."""
        return sum(r.task_attempts for r in self.records)

    def total_task_retries(self) -> int:
        """Attempts re-executed after a transient task failure."""
        return sum(r.task_retries for r in self.records)

    def total_pool_resurrections(self) -> int:
        """Times a broken process pool was rebuilt mid-batch."""
        return sum(r.pool_resurrections for r in self.records)

    # -- dispatch bytes (parallel backend) ---------------------------------
    def total_payload_bytes(self) -> int:
        """Pickled driver→worker payload bytes over every launched attempt."""
        return sum(r.payload_bytes for r in self.records)

    def total_context_installs(self) -> int:
        """Run-context broadcasts installed into worker pools."""
        return sum(r.context_installs for r in self.records)

    def total_context_bytes(self) -> int:
        """Bytes shipped by run-context broadcasts (installs × blob size)."""
        return sum(r.context_bytes for r in self.records)

    # -- figure extracts ----------------------------------------------
    def reduce_time_series(self) -> list[tuple[int, float, float]]:
        """(batch, mean, max) reduce-task times — Figure 13's scatter."""
        return [
            (r.index, r.mean_reduce_time, r.max_reduce_time) for r in self.records
        ]

    def task_count_series(self) -> list[tuple[int, int, int]]:
        """(batch, map_tasks, reduce_tasks) — Figure 12's traces."""
        return [(r.index, r.map_tasks, r.reduce_tasks) for r in self.records]

    def partition_overhead_fractions(self) -> list[float]:
        """Algorithm 2 planning cost as a fraction of the interval — Figure 14b.

        Buffering (Algorithm 1) is excluded: it replaces the receiver's
        ordinary ingestion work and overlaps the batch interval, whereas
        the plan step is the marginal cost Prompt adds at the heartbeat.
        """
        interval = self.batch_interval
        if interval <= 0:
            return []
        return [r.plan_elapsed / interval for r in self.records]
