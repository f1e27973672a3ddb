"""The micro-batch stream processing engine façade.

Wires together every substrate piece into the pipeline of Figure 1:

    source -> Receiver -> [partitioner] -> Map stage -> shuffle ->
    Reduce stage -> batch state -> windowed answer

on the discrete-event timeline of Figure 2: batch *k* accumulates over
``[k*I, (k+1)*I)``, its processing is submitted at the heartbeat and
runs FIFO behind any still-executing predecessors, and the end-to-end
latency of the batch is interval + queueing + processing.  Elasticity
(Algorithm 4) observes completed batches and adjusts the numbers of Map
and Reduce tasks used for subsequent batches.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.batch import BatchInfo, PartitionedBatch
from ..core.config import EarlyReleaseConfig, ElasticityConfig
from ..core.early_release import EarlyReleaseController
from ..core.elasticity import AutoScaler, ScalingDecision
from ..core.tuples import Key
from ..core.metrics import evaluate_partition
from ..extensions.batch_sizing import BatchSizeController, BatchSizingConfig
from ..obs import ObservabilityConfig, RunObservability
from ..partitioners.base import Partitioner
from ..partitioners.feedback import FEEDBACK_LAG, NULL_FEEDBACK, FeedbackBuffer
from ..queries.base import Query
from ..workloads.source import StreamSource
from .backpressure import BackpressureConfig, BackpressureMonitor
from .cluster import Cluster, ClusterConfig
from .executors import (
    EXECUTOR_NAMES,
    BatchHandle,
    ExecutionBackend,
    ExecutorKind,
    make_executor,
)
from .faults import FailureInjector, RecoveryEvent, TaskFaultInjector
from .lateness import LatenessConfig, LatenessMonitor
from .receiver import Receiver
from .scheduler import PipelineScheduler, ScheduledJob
from .simulation import EventLoop
from .state import StateStore
from .stats import BatchRecord, RunStats
from .tasks import BatchExecution, TaskCostModel
from .topology import ClusterTopology
from .windows import WindowedAggregator

log = logging.getLogger(__name__)

__all__ = ["EngineConfig", "RunResult", "MicroBatchEngine"]


@dataclass(frozen=True)
class EngineConfig:
    """Static engine configuration for one run."""

    batch_interval: float = 1.0
    num_blocks: int = 8
    num_reducers: int = 8
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    cost_model: TaskCostModel = field(default_factory=TaskCostModel)
    early_release: EarlyReleaseConfig = field(default_factory=EarlyReleaseConfig)
    elasticity: Optional[ElasticityConfig] = None
    #: adaptive batch-interval resizing (Das et al.) — the orthogonal
    #: stabilization technique the paper contrasts with; ``batch_interval``
    #: then only seeds the controller.
    batch_sizing: Optional["BatchSizingConfig"] = None
    #: delay contract for late tuples (Section 2.1 / Section 8); None
    #: means the source is trusted to deliver in timestamp order
    lateness: Optional[LatenessConfig] = None
    #: model shuffle locality: blocks/reducers placed round-robin over
    #: nodes and remote fragment fetches pay the cost model's network term
    use_topology: bool = False
    backpressure: BackpressureConfig = field(default_factory=BackpressureConfig)
    track_outputs: bool = True
    replicate_inputs: bool = False
    #: execution backend dispatching Map/Reduce tasks:
    #: ``ExecutorKind.SERIAL`` runs them inline, ``ExecutorKind.PARALLEL``
    #: fans them out over a process pool with bit-identical results (see
    #: repro.engine.executors).  Plain registry strings ("serial"/
    #: "parallel") are accepted for back-compat and normalized to the
    #: enum in ``__post_init__``.
    executor: ExecutorKind = ExecutorKind.SERIAL
    #: worker processes for the parallel backend (None = auto)
    executor_workers: Optional[int] = None
    #: root seed for per-task RNG derivation (run-level determinism)
    run_seed: int = 0
    #: bounded re-execution of transiently-failed task attempts (the
    #: parallel backend re-runs a task from its pickled payload under
    #: the same derived seed, so retried runs stay bit-identical)
    max_task_retries: int = 2
    #: real seconds a task attempt may stay outstanding before it trips
    #: the straggler deadline (None = never)
    task_timeout: Optional[float] = None
    #: duplicate the slowest outstanding task once its deadline trips and
    #: take whichever copy delivers first (requires task_timeout)
    speculative_execution: bool = False
    #: broken-pool rebuilds allowed per task wave before the batch
    #: degrades to the serial fallback
    max_pool_resurrections: int = 2
    #: bounded two-stage pipelining of the driver (Section 2.1 /
    #: Figure 2: interval k+1 buffers *while* interval k processes).
    #: 1 (the default) submits batch k and joins it in the same
    #: heartbeat — strictly sequential collect→partition→execute; 2
    #: parks batch k's handle and overlaps batch k+1's ingest/partition
    #: with its execution, joining handles in batch order so results
    #: stay byte-identical.  Clamped back to 1 (with a
    #: warning) when elasticity or batch sizing is configured: those
    #: feedback loops steer batch k+1 from batch k's completion, which
    #: pipelining would hand them late.
    pipeline_depth: int = 1
    #: span tracing + metrics for this run (None = fully disabled; the
    #: no-op path adds no measurable overhead and never perturbs the
    #: determinism contract — see repro.obs)
    observability: Optional[ObservabilityConfig] = None

    def __post_init__(self) -> None:
        if self.batch_interval <= 0:
            raise ValueError("batch_interval must be positive")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        try:
            # normalize registry strings to the enum (frozen dataclass,
            # hence the object.__setattr__ escape hatch)
            object.__setattr__(self, "executor", ExecutorKind(self.executor))
        except ValueError:
            raise ValueError(
                f"executor must be one of {EXECUTOR_NAMES}, got {self.executor!r}"
            ) from None
        if self.executor_workers is not None and self.executor_workers < 1:
            raise ValueError("executor_workers must be >= 1 when set")
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive when set")
        if self.max_pool_resurrections < 0:
            raise ValueError("max_pool_resurrections must be >= 0")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if self.speculative_execution and self.task_timeout is None:
            raise ValueError(
                "speculative_execution requires task_timeout (speculation "
                "triggers on the straggler deadline)"
            )


@dataclass(slots=True)
class _InFlightBatch:
    """Everything the driver must retain per submitted batch until its
    handle is joined (in batch order) and the completion is fed to
    windows/state/stats."""

    index: int
    info: BatchInfo
    tuples: list
    partitioned: PartitionedBatch
    handle: BatchHandle
    map_tasks: int
    reduce_tasks: int
    batch_span_id: int
    #: real stamp of submit_batch *returning* to the driver.  An eager
    #: backend executes inside the call, so completed_at <= dispatched_at
    #: and the overlap accounting correctly collapses to zero; an async
    #: backend returns immediately and overlap measures true concurrency.
    dispatched_at: float


@dataclass
class RunResult:
    """Everything a finished run exposes to callers and benches."""

    stats: RunStats
    window_answers: list[dict[Key, Any]]
    state_store: StateStore
    scaling_history: list[ScalingDecision]
    backpressure: BackpressureMonitor
    recoveries: list[RecoveryEvent]
    early_release: EarlyReleaseController
    lateness: Optional[LatenessMonitor] = None
    #: execution backend that ran the batches ("serial"/"parallel")
    backend_name: str = "serial"
    #: batches where the parallel backend degraded to serial execution
    executor_fallbacks: int = 0
    #: run-level fault-tolerance totals from the dispatch layer (these
    #: also count work done in batches that ultimately fell back, which
    #: the per-record sums in RunStats cannot see)
    executor_task_attempts: int = 0
    executor_task_retries: int = 0
    executor_pool_resurrections: int = 0
    executor_speculative_wins: int = 0
    executor_timeout_trips: int = 0
    #: driver→worker dispatch bytes for the whole run: pickled payload
    #: bytes per launched attempt plus run-context broadcast traffic
    executor_payload_bytes: int = 0
    executor_context_installs: int = 0
    executor_context_bytes: int = 0
    #: the run's tracer + metrics registry (no-op pair when the config
    #: did not enable observability); excluded from equality like every
    #: other observational field
    observability: Optional[RunObservability] = field(default=None, compare=False)

    @property
    def stable(self) -> bool:
        return not self.backpressure.triggered

    def final_window_answer(self) -> dict[Key, Any]:
        return self.window_answers[-1] if self.window_answers else {}


class MicroBatchEngine:
    """Simulated distributed micro-batch stream processing system."""

    def __init__(
        self,
        partitioner: Partitioner,
        query: Query,
        config: EngineConfig | None = None,
        *,
        failure_injector: FailureInjector | None = None,
        task_fault_injector: TaskFaultInjector | None = None,
    ) -> None:
        self.partitioner = partitioner
        self.query = query
        self.config = config or EngineConfig()
        self.failure_injector = failure_injector
        self.task_fault_injector = task_fault_injector

    # ------------------------------------------------------------------
    def run(self, source: StreamSource, num_batches: int) -> RunResult:
        """Process ``num_batches`` consecutive batch intervals of ``source``."""
        if num_batches < 1:
            raise ValueError(f"num_batches must be >= 1, got {num_batches}")
        cfg = self.config
        obs = RunObservability(cfg.observability)
        tracer, metrics = obs.tracer, obs.metrics
        self.partitioner.bind_observability(metrics)
        backend = make_executor(
            cfg.executor,
            max_workers=cfg.executor_workers,
            run_seed=cfg.run_seed,
            max_task_retries=cfg.max_task_retries,
            task_timeout=cfg.task_timeout,
            speculative=cfg.speculative_execution,
            max_pool_resurrections=cfg.max_pool_resurrections,
            fault_injector=self.task_fault_injector,
        )
        backend.bind_observability(tracer, metrics)
        loop = EventLoop()
        scheduler = PipelineScheduler(loop)
        cluster = Cluster(cfg.cluster)
        topology = ClusterTopology(cfg.cluster) if cfg.use_topology else None
        early = EarlyReleaseController(cfg.early_release)
        lateness = (
            LatenessMonitor(cfg.lateness) if cfg.lateness is not None else None
        )
        receiver = Receiver(
            source,
            early_release=early,
            use_cutoff=self.partitioner.uses_accumulator,
            lateness=lateness,
        )
        receiver.reset()
        self.partitioner.reset()
        # Worker-load feedback channel: only built for techniques that
        # opted in, so the default path neither constructs feedback nor
        # calls into the partitioner — byte-identical to the
        # pre-feedback engine.  Delivery lag and ordering are fixed by
        # the FeedbackBuffer contract (see repro.partitioners.feedback),
        # which is what keeps depth-1 and depth-2 drivers equivalent.
        feedback = (
            FeedbackBuffer() if self.partitioner.uses_feedback else NULL_FEEDBACK
        )

        scaler: Optional[AutoScaler] = None
        if cfg.elasticity is not None:
            scaler = AutoScaler(
                cfg.elasticity,
                map_tasks=cfg.num_blocks,
                reduce_tasks=cfg.num_reducers,
            )
        sizer: Optional[BatchSizeController] = None
        if cfg.batch_sizing is not None:
            sizer = BatchSizeController(cfg.batch_sizing)
            sizer.seed(cfg.batch_interval)

        depth = cfg.pipeline_depth
        if depth > 1 and (scaler is not None or sizer is not None):
            log.warning(
                "pipeline_depth=%d clamped to 1: elasticity/batch-sizing "
                "feedback steers batch k+1 from batch k's completion, "
                "which a pipelined driver would deliver too late",
                depth,
            )
            depth = 1
        if depth > FEEDBACK_LAG and self.partitioner.uses_feedback:
            log.warning(
                "pipeline_depth=%d clamped to %d: %s consumes worker-load "
                "feedback, which is only guaranteed published in time when "
                "at most %d batches are in flight",
                depth, FEEDBACK_LAG, self.partitioner.name, FEEDBACK_LAG,
            )
            depth = FEEDBACK_LAG
        if depth > 1 and metrics.enabled:
            metrics.gauge(
                "prompt_pipeline_depth",
                "Bounded pipeline depth the driver ran with (batches in flight)",
            ).set(depth)

        batches_per_window = (
            self.query.window.batches_per_window(cfg.batch_interval)
            if self.query.window is not None
            else 1
        )
        windows = WindowedAggregator(self.query.aggregator, batches_per_window)
        store = StateStore(replicate_inputs=cfg.replicate_inputs)
        monitor = BackpressureMonitor(cfg.backpressure)
        stats = RunStats(batch_interval=cfg.batch_interval)
        window_answers: list[dict[Key, Any]] = []
        scaling_history: list[ScalingDecision] = []
        recoveries: list[RecoveryEvent] = []

        def publish_partition_quality(partitioned) -> None:
            if not metrics.enabled:
                return
            quality = evaluate_partition(partitioned)
            labels = {"technique": self.partitioner.name}
            metrics.gauge(
                "prompt_partition_bsi",
                "Block size-imbalance of the last batch (Eqn. 2)",
                labels,
            ).set(quality.bsi)
            metrics.gauge(
                "prompt_partition_bci",
                "Block cardinality-imbalance of the last batch (Eqn. 4)",
                labels,
            ).set(quality.bci)
            metrics.gauge(
                "prompt_partition_ksr",
                "Key split ratio of the last batch (Eqn. 5)",
                labels,
            ).set(quality.ksr)

        # -- in-flight batches -------------------------------------------
        # Every batch is submitted through submit_batch and its handle
        # parked here.  Depth 1 joins it in the same heartbeat; depth
        # >= 2 leaves it parked so batch k+1's ingest/partition overlaps
        # its execution.  Handles join strictly in batch order, and a
        # batch's scheduler job always carries its *own* heartbeat as
        # the ready time — the simulated timeline (ready, start, finish,
        # queue delay) is computed from the same values in the same
        # order at every depth, so depth never leaks into the
        # determinism contract.
        in_flight: deque[_InFlightBatch] = deque()

        # -- bounded completion worker (depth >= 2) ---------------------
        # At depth >= 2 _complete_batch (output merge, window fold,
        # state put/evict, stats) is handed to a single worker thread
        # and joined in a bounded queue, so a large-window merge does
        # not stall the driver exactly where pipelining buys overlap:
        # one thread + batch-ordered enqueue keeps windows/state folding
        # in batch order (the determinism contract), and the bound keeps
        # memory and completion lag finite.  Everything _complete_batch
        # touches (windows, store, stats, monitor, recoveries,
        # window_answers) is owned by the worker while the run is live:
        # the scaler and sizer are always None at depth >= 2 (clamped
        # above), and the driver only reads those structures after the
        # final flush.
        completer: Optional[ThreadPoolExecutor] = None
        completions: deque["Future[None]"] = deque()
        completion_bound = max(2, depth)
        if depth > 1:
            completer = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="prompt-complete"
            )

        def enqueue_completion(complete) -> None:
            enqueued_at = time.perf_counter()

            def run_completion() -> None:
                complete()
                if metrics.enabled:
                    metrics.histogram(
                        "prompt_completion_lag_seconds",
                        "Real time from a batch's join to the end of its "
                        "deferred completion work",
                    ).observe(time.perf_counter() - enqueued_at)

            completions.append(completer.submit(run_completion))
            while len(completions) > completion_bound:
                # joining the oldest future re-raises anything the
                # completion work raised, so failures surface promptly
                completions.popleft().result()

        def flush_completions() -> None:
            while completions:
                completions.popleft().result()

        def join_oldest() -> None:
            entry = in_flight.popleft()
            k, partitioned = entry.index, entry.partitioned
            pipeline_wait = overlap = 0.0
            if depth == 1:
                execution = entry.handle.result()
            else:
                wait_started = time.perf_counter()
                with tracer.span(
                    "pipeline_wait", parent=entry.batch_span_id, batch=k
                ):
                    execution = entry.handle.result()
                pipeline_wait = time.perf_counter() - wait_started
                if metrics.enabled:
                    metrics.histogram(
                        "prompt_pipeline_stall_seconds",
                        "Real time the driver stalled joining an in-flight batch",
                    ).observe(pipeline_wait)
                # execution time that elapsed after submit_batch returned
                # control to the driver, minus the tail the driver spent
                # blocked in result(): the wall-clock the pipeline reclaimed.
                overlap = max(
                    0.0,
                    execution.completed_at - entry.dispatched_at - pipeline_wait,
                )
            if feedback.enabled:
                # the buffer withholds this until batch k+2's heartbeat —
                # the lag a pipelined driver is physically constrained
                # to — so depth never leaks into feedback-consuming
                # techniques
                feedback.publish(backend.observed_load(partitioned, execution))
            processing = (
                cluster.stage_makespan(execution.map_durations)
                + cluster.stage_makespan(execution.reduce_durations)
                + self.partitioner.heartbeat_overhead(partitioned)
            )

            def complete(job: ScheduledJob) -> None:
                self._complete_batch(
                    k,
                    entry.info,
                    entry.tuples,
                    partitioned.buffer_elapsed,
                    partitioned.plan_elapsed,
                    execution,
                    job,
                    entry.map_tasks,
                    entry.reduce_tasks,
                    scaler=scaler,
                    windows=windows,
                    batches_per_window=batches_per_window,
                    store=store,
                    monitor=monitor,
                    stats=stats,
                    window_answers=window_answers,
                    scaling_history=scaling_history,
                    recoveries=recoveries,
                    sizer=sizer,
                    obs=obs,
                    batch_span_id=entry.batch_span_id,
                    pipeline_wait=pipeline_wait,
                    pipeline_overlap=overlap,
                )

            if depth == 1:
                # event-time completion: elasticity and batch sizing read
                # batch k's completion at its simulated finish instant
                scheduler.submit(k, processing, complete)
            else:
                # joined at a later heartbeat, so the loop may already be
                # past this batch's simulated finish instant and a finish
                # *event* could land in the past — the completion work
                # itself depends only on the job's timeline values.
                job = scheduler.submit(k, processing, ready_at=entry.info.t_end)
                enqueue_completion(lambda: complete(job))

        def heartbeat(k: int, t_start: float, interval: float) -> None:
            # Free a pipeline slot first: with the bound reached, the
            # driver must absorb the oldest completion before it may
            # ingest this interval (bounded depth = bounded memory for
            # parked tuples/partitions and bounded completion lag).
            while len(in_flight) >= depth:
                join_oldest()
            info = BatchInfo(index=k, t_start=t_start, t_end=t_start + interval)
            batch_span = tracer.start("batch", index=k)
            try:
                with tracer.span("buffer", batch=k):
                    tuples, window = receiver.collect(info)
                map_tasks = scaler.map_tasks if scaler else cfg.num_blocks
                reduce_tasks = scaler.reduce_tasks if scaler else cfg.num_reducers
                # with depth 2 the drain loop above has joined batch k-2,
                # so exactly the feedback the buffer's lag releases is
                # guaranteed published — same bytes, same order as depth 1
                feedback.deliver(self.partitioner, k)
                with tracer.span(
                    "partition", batch=k, technique=self.partitioner.name
                ):
                    partitioned = self.partitioner.partition(
                        tuples, map_tasks, info
                    )
                early.record(partitioned.plan_elapsed, window)
                publish_partition_quality(partitioned)
                handle = backend.submit_batch(
                    partitioned,
                    self.query,
                    self.partitioner,
                    reduce_tasks,
                    cfg.cost_model,
                    topology=topology,
                    trace_parent=batch_span.span_id,
                )
                in_flight.append(
                    _InFlightBatch(
                        index=k,
                        info=info,
                        tuples=tuples,
                        partitioned=partitioned,
                        handle=handle,
                        map_tasks=map_tasks,
                        reduce_tasks=reduce_tasks,
                        batch_span_id=batch_span.span_id,
                        dispatched_at=time.perf_counter(),
                    )
                )
                if depth == 1:
                    join_oldest()
            finally:
                tracer.end(batch_span)
            if k + 1 < num_batches:
                next_interval = (
                    sizer.next_interval() if sizer is not None else cfg.batch_interval
                )
                loop.schedule(
                    info.t_end + next_interval,
                    lambda: heartbeat(k + 1, info.t_end, next_interval),
                    priority=0,
                    label=f"heartbeat-{k + 1}",
                )

        loop.schedule(
            cfg.batch_interval,
            lambda: heartbeat(0, 0.0, cfg.batch_interval),
            label="heartbeat-0",
        )
        log.debug(
            "run starting: partitioner=%s backend=%s batches=%d",
            self.partitioner.name, backend.name, num_batches,
        )
        run_span = tracer.start(
            "run",
            partitioner=self.partitioner.name,
            backend=backend.name,
            batches=num_batches,
        )
        try:
            loop.run()
            # At depth >= 2 the heartbeat chain ends with up to `depth`
            # batches still parked.  Join them in batch order before the
            # run closes so stats/windows/state see every batch exactly
            # once — then join the completion worker's tail so every
            # batch's windows/state/stats fold lands before results are
            # read.
            while in_flight:
                join_oldest()
            flush_completions()
        finally:
            tracer.end(run_span)
            if completer is not None:
                completer.shutdown(wait=True)
            backend.close()
        if monitor.triggered:
            log.warning(
                "backpressure triggered during the run (batch %s)",
                monitor.triggered_at,
            )
        log.info(
            "run complete: %d batches on %s backend, %d tuples, "
            "throughput %.0f tuples/s, mean latency %.3fs",
            len(stats), backend.name, stats.total_tuples,
            stats.throughput(), stats.mean_latency(),
        )
        written = obs.flush()
        if written:
            log.info(
                "observability exports written: %s",
                ", ".join(str(p) for p in written),
            )
        return RunResult(
            stats=stats,
            window_answers=window_answers,
            state_store=store,
            scaling_history=scaling_history,
            backpressure=monitor,
            recoveries=recoveries,
            early_release=early,
            lateness=lateness,
            backend_name=backend.name,
            executor_fallbacks=backend.fallbacks,
            executor_task_attempts=backend.task_attempts,
            executor_task_retries=backend.task_retries,
            executor_pool_resurrections=backend.pool_resurrections,
            executor_speculative_wins=backend.speculative_wins,
            executor_timeout_trips=backend.timeout_trips,
            executor_payload_bytes=backend.payload_bytes,
            executor_context_installs=backend.context_installs,
            executor_context_bytes=backend.context_bytes,
            observability=obs,
        )

    # ------------------------------------------------------------------
    def _complete_batch(
        self,
        k: int,
        info: BatchInfo,
        tuples: list,
        buffer_elapsed: float,
        plan_elapsed: float,
        execution: BatchExecution,
        job: ScheduledJob,
        map_tasks: int,
        reduce_tasks: int,
        *,
        scaler: Optional[AutoScaler],
        windows: WindowedAggregator,
        batches_per_window: int,
        store: StateStore,
        monitor: BackpressureMonitor,
        stats: RunStats,
        window_answers: list[dict[Key, Any]],
        scaling_history: list[ScalingDecision],
        recoveries: list[RecoveryEvent],
        sizer: Optional[BatchSizeController] = None,
        obs: Optional[RunObservability] = None,
        batch_span_id: Optional[int] = None,
        pipeline_wait: float = 0.0,
        pipeline_overlap: float = 0.0,
    ) -> None:
        """Batch ``k`` finished processing: state, windows, feedback."""
        cfg = self.config
        obs = obs or RunObservability(None)
        tracer, metrics = obs.tracer, obs.metrics
        distinct = set()
        for m in execution.map_results:
            distinct.update(c.key for c in m.clusters)
        key_count = len(distinct)

        output = execution.batch_output() if cfg.track_outputs else {}
        if cfg.track_outputs:
            with tracer.span("window_merge", parent=batch_span_id, batch=k):
                store.put(k, output, tuples if cfg.replicate_inputs else None)
                if self.failure_injector and self.failure_injector.should_fail(k):
                    recoveries.append(
                        self.failure_injector.fail_and_recover(
                            store, k, self.query
                        )
                    )
                    output = dict(store.get(k).output)
                    log.info(
                        "batch %d state lost and recovered (%d keys, match=%s)",
                        k,
                        recoveries[-1].recovered_keys,
                        recoveries[-1].matched_original,
                    )
                window_answers.append(windows.add_batch(output))
                expired = k - batches_per_window
                if expired >= 0:
                    store.evict_through(expired)

        decision: Optional[ScalingDecision] = None
        data_rate = len(tuples) / info.interval
        if scaler is not None:
            decision = scaler.observe(
                job.duration,
                info.interval,
                data_rate=data_rate,
                key_count=key_count,
            )
            scaling_history.append(decision)
        if sizer is not None:
            sizer.observe(info.interval, job.duration)

        record = BatchRecord(
            index=k,
            t_start=info.t_start,
            heartbeat=info.t_end,
            ready_at=job.ready_at,
            exec_start=job.start,
            exec_finish=job.finish,
            processing_time=job.duration,
            tuple_count=len(tuples),
            key_count=key_count,
            map_tasks=map_tasks,
            reduce_tasks=reduce_tasks,
            map_durations=tuple(execution.map_durations),
            reduce_durations=tuple(execution.reduce_durations),
            bucket_weights=tuple(r.input_weight for r in execution.reduce_results),
            buffer_elapsed=buffer_elapsed,
            plan_elapsed=plan_elapsed,
            scaling=decision,
            backend=execution.backend,
            map_wall_seconds=tuple(execution.map_wall_seconds),
            reduce_wall_seconds=tuple(execution.reduce_wall_seconds),
            task_attempts=execution.task_attempts,
            task_retries=execution.task_retries,
            pool_resurrections=execution.pool_resurrections,
            speculative_wins=execution.speculative_wins,
            timeout_trips=execution.timeout_trips,
            payload_bytes=execution.payload_bytes,
            context_installs=execution.context_installs,
            context_bytes=execution.context_bytes,
            pipeline_wait_seconds=pipeline_wait,
            pipeline_overlap_seconds=pipeline_overlap,
        )
        stats.add(record)
        monitor.observe(k, record.load, record.queue_delay, record.batch_interval)
        if metrics.enabled:
            metrics.counter(
                "prompt_batches_total", "Batches completed by the engine"
            ).inc()
            metrics.counter(
                "prompt_tuples_total", "Tuples processed across all batches"
            ).inc(record.tuple_count)
            metrics.histogram(
                "prompt_batch_latency_seconds",
                "End-to-end batch latency (interval + queueing + processing)",
            ).observe(record.latency)
            metrics.histogram(
                "prompt_batch_processing_seconds",
                "Simulated processing time per batch",
            ).observe(record.processing_time)
            metrics.histogram(
                "prompt_queue_delay_seconds",
                "Time a ready batch waited behind its predecessors",
            ).observe(record.queue_delay)
            metrics.histogram(
                "prompt_partition_plan_seconds",
                "Measured Algorithm 2 (partition planning) wall-clock",
            ).observe(plan_elapsed)
            metrics.histogram(
                "prompt_partition_buffer_seconds",
                "Measured Algorithm 1 (frequency-aware buffering) wall-clock",
            ).observe(buffer_elapsed)
            metrics.gauge(
                "prompt_batch_load",
                "W = processing_time / batch_interval of the last batch",
            ).set(record.load)
            for name, help_text, amount in (
                ("prompt_task_attempts_total",
                 "Task attempts launched on worker pools", execution.task_attempts),
                ("prompt_task_retries_total",
                 "Task attempts re-executed after transient failures",
                 execution.task_retries),
                ("prompt_pool_resurrections_total",
                 "Broken process pools rebuilt mid-batch",
                 execution.pool_resurrections),
                ("prompt_speculative_wins_total",
                 "Straggler duplicates that beat the original copy",
                 execution.speculative_wins),
                ("prompt_timeout_trips_total",
                 "Per-task straggler deadlines that expired",
                 execution.timeout_trips),
            ):
                metrics.counter(name, help_text).inc(amount)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "batch %d done: tuples=%d keys=%d load=%.3f latency=%.3fs "
                "backend=%s",
                k, record.tuple_count, record.key_count, record.load,
                record.latency, record.backend,
            )
