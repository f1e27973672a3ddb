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
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Any, Mapping, Optional

from ..core.batch import BatchInfo
from ..core.config import EarlyReleaseConfig, ElasticityConfig
from ..core.early_release import EarlyReleaseController
from ..core.elasticity import AutoScaler, ScalingDecision
from ..core.tuples import Key
from ..core.metrics import evaluate_partition
from ..extensions.batch_sizing import BatchSizeController, BatchSizingConfig
from ..obs import ObservabilityConfig, RunObservability
from ..partitioners.base import Partitioner
from ..partitioners.feedback import NULL_FEEDBACK, FeedbackBuffer
from ..queries.base import Query
from ..workloads.source import StreamSource
from .backpressure import BackpressureConfig, BackpressureMonitor
from .cluster import Cluster, ClusterConfig
from .executors import EXECUTOR_NAMES, ExecutorKind, make_executor
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


@dataclass
class RunResult:
    """Everything a finished run exposes to callers and benches."""

    stats: RunStats
    window_answers: list[Mapping[Key, Any]]
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

    def final_window_answer(self) -> Mapping[Key, Any]:
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
            fault_injector=self.task_fault_injector,
        )
        backend.bind_observability(tracer, metrics)
        loop = EventLoop()
        scheduler = PipelineScheduler(loop)
        cluster = Cluster(cfg.cluster)
        # shuffle locality (blocks/reducers placed round-robin over nodes)
        # is modelled exactly when remote fragment fetches have a price
        remote_price = cfg.cost_model.network_per_remote_fragment
        topology = ClusterTopology(cfg.cluster) if remote_price > 0 else None
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
        # the FeedbackBuffer contract (see repro.partitioners.feedback).
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

        batches_per_window = (
            self.query.window.batches_per_window(cfg.batch_interval)
            if self.query.window is not None
            else 1
        )
        windows = WindowedAggregator(self.query.aggregator, batches_per_window)
        store = StateStore(replicate_inputs=cfg.replicate_inputs)
        monitor = BackpressureMonitor(cfg.backpressure)
        stats = RunStats(batch_interval=cfg.batch_interval)
        window_answers: list[Mapping[Key, Any]] = []
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

        def heartbeat(k: int, t_start: float, interval: float) -> None:
            info = BatchInfo(index=k, t_start=t_start, t_end=t_start + interval)
            batch_span = tracer.start("batch", index=k)
            try:
                with tracer.span("buffer", batch=k):
                    tuples, window = receiver.collect(info)
                map_tasks = scaler.map_tasks if scaler else cfg.num_blocks
                reduce_tasks = scaler.reduce_tasks if scaler else cfg.num_reducers
                feedback.deliver(self.partitioner, k)
                with tracer.span(
                    "partition", batch=k, technique=self.partitioner.name
                ):
                    partitioned = self.partitioner.partition(
                        tuples, map_tasks, info
                    )
                early.record(partitioned.plan_elapsed, window)
                replica = ()
                if cfg.replicate_inputs:  # laid out block by block for recovery
                    chains = [list(b.tuples()) for b in partitioned.blocks]
                    replica = (list(chain(*chains)), list(accumulate(map(len, chains))))
                publish_partition_quality(partitioned)
                with tracer.span("execute", batch=k, backend=backend.name):
                    execution = backend.run_batch(
                        partitioned,
                        self.query,
                        self.partitioner,
                        reduce_tasks,
                        cfg.cost_model,
                        topology=topology,
                    )
                if feedback.enabled:
                    # the buffer withholds this until batch k+2's heartbeat
                    feedback.publish(backend.observed_load(partitioned, execution))
                processing = (
                    cluster.stage_makespan(execution.map_durations)
                    + cluster.stage_makespan(execution.reduce_durations)
                    + self.partitioner.heartbeat_overhead(partitioned)
                )

                def complete(job: ScheduledJob) -> None:
                    self._complete_batch(
                        k,
                        info,
                        tuples,
                        partitioned.buffer_elapsed,
                        partitioned.plan_elapsed,
                        execution,
                        job,
                        map_tasks,
                        reduce_tasks,
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
                        batch_span_id=batch_span.span_id,
                        replica=replica,
                    )

                # event-time completion: elasticity and batch sizing read
                # batch k's completion at its simulated finish instant
                scheduler.submit(k, processing, complete)
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
        finally:
            tracer.end(run_span)
            backend.close()
            # ``heartbeat`` reaches itself through the lambda it schedules;
            # unbinding it breaks that cycle, so the run's state is freed
            # by reference counting once the caller drops the result
            # instead of waiting for a gen-2 collection.
            del heartbeat
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
        window_answers: list[Mapping[Key, Any]],
        scaling_history: list[ScalingDecision],
        recoveries: list[RecoveryEvent],
        sizer: Optional[BatchSizeController] = None,
        obs: Optional[RunObservability] = None,
        batch_span_id: Optional[int] = None,
        replica: tuple = (),
    ) -> None:
        """Batch ``k`` finished processing: state, windows, feedback."""
        cfg = self.config
        obs = obs or RunObservability(None)
        tracer, metrics = obs.tracer, obs.metrics
        # key locality: each emitted key is reduced by exactly one task
        key_count = sum(r.key_count for r in execution.reduce_results)

        output = execution.batch_output() if cfg.track_outputs else {}
        if cfg.track_outputs:
            with tracer.span("window_merge", parent=batch_span_id, batch=k):
                store.put(k, output, *replica)
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
            payload_bytes=execution.payload_bytes,
            context_installs=execution.context_installs,
            context_bytes=execution.context_bytes,
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
            ):
                metrics.counter(name, help_text).inc(amount)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "batch %d done: tuples=%d keys=%d load=%.3f latency=%.3fs "
                "backend=%s",
                k, record.tuple_count, record.key_count, record.load,
                record.latency, record.backend,
            )
