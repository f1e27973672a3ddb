"""Pluggable execution backends for the Map -> shuffle -> Reduce pipeline.

The engine used to run every task inline; this module makes the task
dispatch a strategy so the load-balanced blocks that Algorithm 2
equalizes are actually *processed concurrently* — the operating regime
the paper's Eqn. 1 (makespan = longest Map + longest Reduce task)
assumes.  Two backends ship:

- :class:`SerialExecutor` — the extracted in-process reference loop.
- :class:`ParallelExecutor` — a ``ProcessPoolExecutor`` running one Map
  task per data block and one Reduce task per bucket concurrently.

**Determinism contract.**  Both backends must produce *bit-identical*
:class:`~repro.engine.tasks.BatchExecution` payloads for the same batch
(the differential test suite enforces this):

- results merge in stable block/bucket-id order, never completion order;
- every task carries a seed derived from
  ``(run_seed, batch_index, kind, task_id)`` via
  :func:`~repro.engine.tasks.derive_task_seed`, so any stochastic
  operator a query may introduce behaves identically under either
  backend;
- the shuffle runs on the driver from Map results ordered by block id,
  so per-bucket partial lists have one canonical order.

**Worker-resident run context.**  The run-invariant slice of every
task — the query (and its aggregator), the reduce-allocation callable,
the cost model, the fault-injection table, the trace flag and the run
seed — is pickled *once* per pool generation into a :class:`RunContext`
and installed in every worker process by the pool initializer plus a
generation-stamped install task.  Per-task payloads then shrink to a
delta of ``(context_generation, batch_index, task_id, block-or-bucket,
…)``; the worker derives the task seed and looks up its injected fault
from the resident context.  A pool resurrected after a
``BrokenProcessPool`` re-installs the current context automatically
(the rebuilt pool's initializer carries it), and a worker handed a
delta stamped with a generation it never saw raises
:class:`StaleContextError` — classified as an infrastructure failure,
so the batch degrades to the serial fallback instead of computing from
the wrong context.

**Task-level fault tolerance.**  Section 8's exactly-once story —
recompute lost work from replicated input — is applied at task
granularity, the way Spark Streaming re-executes a failed task from
lineage.  The parallel backend keeps every task's pickled payload on
the driver (the "replicated input" of one task), so any attempt can be
re-run deterministically:

- **Retries** — an attempt that fails with a
  :class:`~repro.engine.faults.TransientTaskError` (or ``OSError``) is
  resubmitted, up to ``max_task_retries`` times per task.  The retry
  reuses the *same payload* and therefore the same derived seed:
  retried runs remain bit-identical to clean runs.
- **Pool resurrection** — after a ``BrokenProcessPool`` the pool is
  rebuilt and only the still-unfinished tasks are resubmitted; results
  already gathered are kept.  Up to ``max_pool_resurrections`` rebuilds
  per task wave; past the budget, the batch degrades to the serial
  fallback — and the *next* batch tries a fresh pool again instead of
  pinning the rest of the run to serial.
- **Straggler speculation** — with a ``task_timeout``, a task whose
  attempt has been outstanding past the deadline trips a counter; with
  ``speculative=True`` a duplicate attempt of the slowest outstanding
  task is launched and whichever copy finishes first wins.  Both copies
  compute the same bytes (same payload, same seed), so the race is
  benign by construction.

Counters for all of this (attempts, retries, resurrections,
speculative wins, timeout trips) surface per batch on
:class:`~repro.engine.tasks.BatchExecution` and per run on the executor
itself; the engine folds them into ``BatchRecord``/``RunStats`` as
``compare=False`` fields so differential equality is unaffected.
Injected faults for testing come from
:class:`~repro.engine.faults.TaskFaultInjector`.

**Fallback.**  Pool *infrastructure* failures degrade gracefully to
in-process execution for the affected batch — serial semantics are the
reference, so the answer is unchanged; the event is counted on
``fallbacks``/noted on ``last_fallback_reason``.  Classification is by
raise-site: each payload is pickled in the driver when its first
attempt is launched, so serialization failures are caught there and
wrapped in :class:`PayloadSerializationError`; an exception raised *by*
a task in a worker (a query bug — even one whose message mentions
"pickle") propagates unchanged, because masking it behind the serial
fallback would hide a real defect.

Only real wall-clock differs between backends: each task measures its
body with ``perf_counter`` and the per-batch totals feed
:mod:`repro.engine.stats`, which is how the speedup microbenchmark
(``BENCH_parallel_speedup.json``) tracks what parallelism buys.
"""

from __future__ import annotations

import abc
import enum
import logging
import multiprocessing
import os
import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from ..core.batch import PartitionedBatch
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracing import NULL_TRACER, Tracer, WorkerSpan
from ..partitioners.base import Partitioner
from ..partitioners.feedback import WorkerLoadFeedback
from ..queries.base import Query
from .faults import TaskFault, TaskFaultInjector, TransientTaskError
from .tasks import (
    BatchExecution,
    BucketInput,
    MapTaskResult,
    ReduceTaskResult,
    TaskCostModel,
    derive_task_seed,
    execute_batch_tasks,
    run_map_task,
    run_reduce_task,
    shuffle_map_results,
)
from .topology import ClusterTopology

log = logging.getLogger(__name__)

__all__ = [
    "ExecutionBackend",
    "ExecutorKind",
    "SerialExecutor",
    "ParallelExecutor",
    "RunContext",
    "PayloadSerializationError",
    "StaleContextError",
    "EXECUTOR_NAMES",
    "make_executor",
]

#: exception types a task attempt may fail with and still be retried —
#: explicitly-transient errors plus OS-level flakiness; anything else is
#: an application bug and propagates
RETRYABLE_TASK_ERRORS: tuple[type[BaseException], ...] = (
    TransientTaskError,
    OSError,
)


class ExecutorKind(str, enum.Enum):
    """The execution backends the engine can dispatch tasks on.

    A ``str`` subclass so existing code (and configs) that compare
    against the plain registry strings keeps working:
    ``ExecutorKind.SERIAL == "serial"`` is true, and
    ``str(ExecutorKind.PARALLEL)`` is ``"parallel"``.
    """

    SERIAL = "serial"
    PARALLEL = "parallel"

    def __str__(self) -> str:  # str(Enum) would print "ExecutorKind.SERIAL"
        return self.value


class PayloadSerializationError(RuntimeError):
    """A task payload could not be pickled on the driver.

    Raised synchronously in the driver, before that payload reaches the
    pool, which is what makes the infrastructure-vs-application
    classification a raise-site question: serialization problems are
    caught here, so any ``TypeError``/``AttributeError`` coming back
    from a worker is the query's own and must propagate.
    """


class StaleContextError(RuntimeError):
    """A task delta named a context generation this worker does not hold.

    Raised in the worker before any computation happens, so a pool that
    somehow missed its context install can never compute from the wrong
    run-invariant slice.  Classified as an *infrastructure* failure (the
    worker body never ran): the batch degrades to the serial fallback,
    which needs no resident context at all.
    """


class ExecutionBackend(abc.ABC):
    """Strategy interface: how one batch's tasks are dispatched."""

    #: registry identifier ("serial", "parallel")
    name: str = "base"

    def __init__(self, *, run_seed: int = 0) -> None:
        self.run_seed = run_seed
        #: observability sinks, bound by the engine per run; the no-op
        #: defaults make every publish/emit free when nothing is wired
        self.tracer: Tracer = NULL_TRACER
        self.metrics: MetricsRegistry = NULL_METRICS
        #: batches that degraded to in-process execution
        self.fallbacks = 0
        self.last_fallback_reason: Optional[str] = None
        #: run-level fault-tolerance counters (only the parallel backend
        #: ever advances them, but every backend exposes them)
        self.task_attempts = 0
        self.task_retries = 0
        self.pool_resurrections = 0
        self.speculative_wins = 0
        self.timeout_trips = 0
        #: driver→worker dispatch accounting (the parallel backend
        #: advances them; the serial reference ships no bytes anywhere)
        self.payload_bytes = 0
        self.context_installs = 0
        self.context_bytes = 0

    @abc.abstractmethod
    def run_batch(
        self,
        batch: PartitionedBatch,
        query: Query,
        partitioner: Partitioner,
        num_reducers: int,
        cost_model: TaskCostModel,
        topology: ClusterTopology | None = None,
    ) -> BatchExecution:
        """Execute one batch's Map -> shuffle -> Reduce computation."""

    def observed_load(
        self, batch: PartitionedBatch, execution: BatchExecution
    ) -> WorkerLoadFeedback:
        """Package one completed batch's per-worker load for feedback.

        Built from the *simulated* task durations, which the determinism
        contract makes identical across backends — feedback-consuming
        partitioners therefore see the same bytes under serial and
        parallel dispatch.  The engine only calls this for partitioners
        with ``uses_feedback`` set.
        """
        return WorkerLoadFeedback(
            batch_index=batch.info.index,
            block_sizes=tuple(b.size for b in batch.blocks),
            block_cardinalities=tuple(b.cardinality for b in batch.blocks),
            block_loads=tuple(execution.map_durations),
            bucket_weights=tuple(
                r.input_weight for r in execution.reduce_results
            ),
            bucket_loads=tuple(execution.reduce_durations),
        )

    def bind_observability(
        self, tracer: Tracer, metrics: MetricsRegistry
    ) -> None:
        """Attach the run's tracer and metrics registry (engine calls)."""
        self.tracer = tracer
        self.metrics = metrics

    def close(self) -> None:
        """Release any resources (worker pools); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(ExecutionBackend):
    """In-process execution — the reference semantics of the engine."""

    name = "serial"

    def run_batch(
        self,
        batch: PartitionedBatch,
        query: Query,
        partitioner: Partitioner,
        num_reducers: int,
        cost_model: TaskCostModel,
        topology: ClusterTopology | None = None,
    ) -> BatchExecution:
        return execute_batch_tasks(
            batch,
            query,
            partitioner,
            num_reducers,
            cost_model,
            topology=topology,
            run_seed=self.run_seed,
            tracer=self.tracer,
        )


# ----------------------------------------------------------------------
# worker-resident run context (delta dispatch)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RunContext:
    """The run-invariant slice of every task, broadcast once per pool
    generation instead of re-pickled into each task payload.

    Holds everything a Map/Reduce task needs beyond its own block or
    bucket: the query (whose aggregator the Reduce side uses), the
    stateless reduce-allocation callable, the cost model, the full
    fault-injection table, the trace flag, and the run seed the worker
    derives per-task seeds from.  Frozen so a generation is immutable
    once installed — a changed slice always means a new generation.
    """

    run_seed: int
    query: Query
    allocate: Callable
    cost_model: TaskCostModel
    faults: Mapping[tuple[int, str, int], TaskFault] | None
    trace: bool

    def fault_for(
        self, batch_index: int, kind: str, task_id: int
    ) -> TaskFault | None:
        if self.faults is None:
            return None
        return self.faults.get((batch_index, kind, task_id))


#: per-worker-process resident context (set by :func:`_install_context`)
_worker_context: RunContext | None = None
_worker_generation: int = -1


def _install_context(generation: int, blob: bytes) -> int:
    """Install the pickled run context in this worker process.

    Runs through two channels per pool generation: as the pool
    *initializer* in every spawned worker, and once more as a
    generation-stamped install task whose round-trip confirms the pool
    is live (and whose return value lets the driver verify the stamp)
    before any real work is submitted.  A pool resurrected after a
    ``BrokenProcessPool`` goes through both again, which is what makes
    re-installation automatic.
    """
    global _worker_context, _worker_generation
    _worker_context = pickle.loads(blob)
    _worker_generation = generation
    return generation


def _context_for(generation: int) -> RunContext:
    """The resident context, verified against the delta's generation."""
    ctx = _worker_context
    if ctx is None or _worker_generation != generation:
        raise StaleContextError(
            f"task delta references context generation {generation}, but "
            f"this worker holds generation {_worker_generation}"
            + ("" if ctx is not None else " (no context installed)")
        )
    return ctx


def _map_task_delta_worker(payload: bytes, attempt: int = 0) -> MapTaskResult:
    """Delta-dispatch Map entry point: batch-variant payload only.

    The delta carries ``(generation, batch_index, task_id, block,
    num_reducers, split_keys)``; the query, allocator, cost model, seed
    root, fault table and trace flag all come from the resident
    :class:`RunContext`.  The task seed is derived *here* from the
    context's run seed with the same
    :func:`~repro.engine.tasks.derive_task_seed` expression the serial
    reference uses, so results stay byte-identical.  With the context's
    trace flag set, the attempt's wall-clock is measured here — in the
    process that actually runs it — and rides back on the result for
    the driver to stitch.
    """
    generation, batch_index, task_id, block, num_reducers, split_keys = (
        pickle.loads(payload)
    )
    ctx = _context_for(generation)
    started = time.time() if ctx.trace else 0.0
    fault = ctx.fault_for(batch_index, "map", task_id)
    if fault is not None:
        fault.apply(attempt)
    result = run_map_task(
        block,
        ctx.query,
        ctx.allocate,
        num_reducers,
        split_keys,
        ctx.cost_model,
        derive_task_seed(ctx.run_seed, batch_index, "map", task_id),
    )
    if ctx.trace:
        result.span = WorkerSpan(
            pid=os.getpid(), start=started, end=time.time()
        )
    return result


def _reduce_task_delta_worker(payload: bytes, attempt: int = 0) -> ReduceTaskResult:
    """Delta-dispatch Reduce entry point: ``(generation, batch, task, bucket)``."""
    generation, batch_index, task_id, bucket = pickle.loads(payload)
    ctx = _context_for(generation)
    started = time.time() if ctx.trace else 0.0
    fault = ctx.fault_for(batch_index, "reduce", task_id)
    if fault is not None:
        fault.apply(attempt)
    result = run_reduce_task(
        bucket,
        ctx.query.aggregator,
        ctx.cost_model,
        derive_task_seed(ctx.run_seed, batch_index, "reduce", task_id),
    )
    if ctx.trace:
        result.span = WorkerSpan(
            pid=os.getpid(), start=started, end=time.time()
        )
    return result


def _is_infrastructure_error(exc: BaseException) -> bool:
    """Pool/serialization failures that warrant the serial fallback.

    Classification is by raise-site, not message text.  Payloads are
    pickled driver-side and wrapped in :class:`PayloadSerializationError`
    on failure; ``pickle.PicklingError`` additionally covers a worker
    failing to pickle a task's *result* on the way back.  A worker-raised
    ``TypeError``/``AttributeError`` — even one whose message mentions
    "pickle" — is the query's own bug and always propagates.
    :class:`StaleContextError` is the one worker-raised member: it fires
    *before* the task body (a worker without the right resident context
    never computes), so it is a dispatch failure, not an application one.
    """
    return isinstance(
        exc,
        (
            BrokenProcessPool,
            PayloadSerializationError,
            StaleContextError,
            pickle.PicklingError,
        ),
    )


def _is_retryable_error(exc: BaseException) -> bool:
    """Whether a failed task attempt may be re-executed from its payload."""
    return isinstance(exc, RETRYABLE_TASK_ERRORS)


@dataclass(slots=True)
class _WaveCounters:
    """Per-batch fault-tolerance tallies, filled by the task waves."""

    attempts: int = 0
    retries: int = 0
    resurrections: int = 0
    speculative_wins: int = 0
    timeout_trips: int = 0
    payload_bytes: int = 0


#: histogram bounds for driver→worker payload sizes (bytes, not seconds)
PAYLOAD_BYTE_BUCKETS: tuple[float, ...] = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0, 4194304.0, 16777216.0,
)


class ParallelExecutor(ExecutionBackend):
    """Process-pool execution: one Map task per block, one Reduce per bucket.

    The pool is created lazily on the first batch and reused for the
    whole run (fork start method where the platform offers it, so
    workers inherit the loaded modules instead of re-importing).  The
    run-invariant slice — query, allocation callable, cost model, fault
    table, trace flag, run seed — is broadcast once per pool generation
    as a :class:`RunContext` and each task ships only a
    generation-stamped delta (its block or bucket).  Payloads never
    carry engine or partitioner state, and they double as the task's
    replicated input: any attempt can be re-run from them
    deterministically (see the module docstring for the
    retry/resurrection/speculation rules).
    """

    name = "parallel"

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        run_seed: int = 0,
        fallback_to_serial: bool = True,
        mp_context: multiprocessing.context.BaseContext | None = None,
        max_task_retries: int = 2,
        task_timeout: float | None = None,
        speculative: bool = False,
        max_pool_resurrections: int = 2,
        fault_injector: TaskFaultInjector | None = None,
    ) -> None:
        super().__init__(run_seed=run_seed)
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_task_retries < 0:
            raise ValueError(
                f"max_task_retries must be >= 0, got {max_task_retries}"
            )
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        if max_pool_resurrections < 0:
            raise ValueError(
                f"max_pool_resurrections must be >= 0, got {max_pool_resurrections}"
            )
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self.fallback_to_serial = fallback_to_serial
        self.max_task_retries = max_task_retries
        self.task_timeout = task_timeout
        self.speculative = speculative
        self.max_pool_resurrections = max_pool_resurrections
        self.fault_injector = fault_injector
        self._mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        #: monotonically increasing context-generation stamp; bumped
        #: whenever the run-invariant slice changes (so a worker can
        #: detect a delta minted for a slice it never received)
        self._generation = 0
        self._context: RunContext | None = None
        self._context_blob: bytes | None = None
        self._context_signature: object = None

    # ------------------------------------------------------------------
    def _ensure_context(
        self,
        query: Query,
        allocate: Callable,
        cost_model: TaskCostModel,
        trace: bool,
    ) -> None:
        """(Re-)pickle the run-invariant slice when it changed.

        Two-level change detection.  Fast path: the exact objects of the
        installed generation (by identity for the query and cost model —
        the engine passes the same ones every batch — and by equality
        for the allocation callable, since partitioners may hand out a
        fresh-but-equal bound method per batch).  Slow path: pickle the
        candidate slice and compare bytes with the installed blob — a
        caller constructing equivalent objects per batch (common in
        tests and ad-hoc drivers) still reuses the generation, because
        identical bytes install identical worker state.  Only a blob
        that truly differs retires the current pool — its workers hold
        the old slice — and mints a new generation.
        """
        injector = self.fault_injector
        faults = injector.snapshot() if injector is not None else None
        signature = (
            id(query),
            allocate,
            id(cost_model),
            self.run_seed,
            trace,
            None if faults is None else tuple(sorted(faults.items())),
        )
        if (
            self._context_blob is not None
            and signature == self._context_signature
        ):
            return
        context = RunContext(
            run_seed=self.run_seed,
            query=query,
            allocate=allocate,
            cost_model=cost_model,
            faults=faults,
            trace=trace,
        )
        try:
            blob = pickle.dumps(context)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise PayloadSerializationError(
                f"run context is not picklable — {type(exc).__name__}: {exc}"
            ) from exc
        if blob == self._context_blob:
            # byte-identical slice: adopt the new objects' identities so
            # the fast path hits next batch, keep pool and generation
            self._context = context
            self._context_signature = signature
            return
        # workers holding the old slice must not serve the new one
        self.close()
        self._generation += 1
        # pinning the context keeps query/cost_model alive, so the id()s
        # in the signature can never be recycled onto different objects
        self._context = context
        self._context_blob = blob
        self._context_signature = signature
        log.debug(
            "run context generation %d prepared (%d bytes)",
            self._generation, len(blob),
        )

    def _record_install(self) -> None:
        blob_bytes = len(self._context_blob or b"")
        self.context_installs += 1
        self.context_bytes += blob_bytes
        self.metrics.counter(
            "prompt_context_install_total",
            "Run-context broadcasts installed into worker pools",
        ).inc()
        self.tracer.event(
            "context_install",
            generation=self._generation,
            bytes=blob_bytes,
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            ctx = self._mp_context
            if ctx is None:
                methods = multiprocessing.get_all_start_methods()
                ctx = multiprocessing.get_context(
                    "fork" if "fork" in methods else None
                )
            # Every worker the pool ever spawns installs the context
            # via the initializer; the install *task* both confirms
            # the pool is live before real work goes in and charges
            # exactly one install per pool generation to the
            # counters — resurrections re-enter here and pay again.
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=ctx,
                initializer=_install_context,
                initargs=(self._generation, self._context_blob),
            )
            # _pool is assigned before the probe so a BrokenProcessPool
            # raised here is salvaged by the wave loop, not leaked.
            confirmed = self._pool.submit(
                _install_context, self._generation, self._context_blob
            ).result()
            if confirmed != self._generation:
                raise StaleContextError(
                    f"context install returned generation {confirmed}, "
                    f"expected {self._generation}"
                )
            self._record_install()
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool; the next batch rebuilds it lazily."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------------
    def _serial_fallback(
        self,
        reason: BaseException,
        batch: PartitionedBatch,
        query: Query,
        partitioner: Partitioner,
        num_reducers: int,
        cost_model: TaskCostModel,
        topology: ClusterTopology | None,
    ) -> BatchExecution:
        self.fallbacks += 1
        self.last_fallback_reason = f"{type(reason).__name__}: {reason}"
        log.warning(
            "batch %s degraded to serial execution: %s",
            batch.info.index, self.last_fallback_reason,
        )
        self.metrics.counter(
            "prompt_executor_fallbacks_total",
            "Batches the parallel backend degraded to serial execution",
        ).inc()
        self.tracer.event(
            "executor_fallback",
            batch=batch.info.index,
            reason=type(reason).__name__,
        )
        return execute_batch_tasks(
            batch,
            query,
            partitioner,
            num_reducers,
            cost_model,
            topology=topology,
            run_seed=self.run_seed,
            tracer=self.tracer,
        )

    def _pickle_payload(self, item: tuple) -> bytes:
        # Payloads are pickled *here*, in the driver, and shipped as
        # bytes.  Letting the pool's queue-feeder thread pickle them
        # instead would surface unpicklable payloads asynchronously
        # and leave the pool wedged (its shutdown can deadlock after
        # a feeder crash); pickling in the wave loop makes the failure
        # synchronous, classifiable by raise-site, and pool-preserving.
        try:
            return pickle.dumps(item)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise PayloadSerializationError(
                f"task payload is not picklable — {type(exc).__name__}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def _run_tasks(
        self,
        worker: Callable[[bytes, int], object],
        items: Sequence[tuple],
        counters: _WaveCounters,
        kind: str = "task",
        batch_index: int = -1,
    ) -> list:
        """Run one wave of tasks with retries/resurrection/speculation.

        Results come back indexed by submission position (= task id),
        which is what keeps the downstream merge deterministic no matter
        how attempts raced, failed, or were duplicated.  When tracing is
        on, each winning attempt's worker-side span is stitched into the
        driver trace (in task-id order, so the span tree is independent
        of completion races) and retries/timeouts/speculative launches
        are marked with zero-duration events.

        ``items`` are the unpickled task deltas.  Each is pickled when
        its first attempt is launched — so task 0 is already running in
        a worker while task 1's block is being serialized — and the
        bytes are kept for retries and speculative copies.
        """
        n = len(items)
        payloads: list[Optional[bytes]] = [None] * n
        results: list = [None] * n
        done = [False] * n
        attempts = [0] * n  # launches so far == next attempt index
        failures = [0] * n  # failed attempts charged against the retry budget
        outstanding = [0] * n  # live futures per task
        deadlines = [float("inf")] * n
        pending: dict[Future, tuple[int, bool]] = {}
        remaining = n
        resurrections_left = self.max_pool_resurrections
        won_attempt = [0] * n  # attempt number of the winning copy
        won_speculative = [False] * n
        pending_attempt: dict[Future, int] = {}

        def charge_attempt(tid: int) -> None:
            counters.attempts += 1
            self.task_attempts += 1
            # every launched attempt ships its payload again, so the
            # byte accounting charges per attempt, not per task
            nbytes = len(payloads[tid])
            counters.payload_bytes += nbytes
            self.payload_bytes += nbytes
            self.metrics.histogram(
                "prompt_task_payload_bytes",
                "Pickled driver-to-worker payload size per task attempt",
                buckets=PAYLOAD_BYTE_BUCKETS,
            ).observe(nbytes)
            if self.task_timeout is not None:
                deadlines[tid] = time.monotonic() + self.task_timeout

        to_submit: list[tuple[int, bool]] = [(tid, False) for tid in range(n)]

        def record_success(tid: int, future: Future, speculative: bool) -> None:
            nonlocal remaining
            results[tid] = future.result()
            done[tid] = True
            remaining -= 1
            won_attempt[tid] = pending_attempt.get(future, attempts[tid] - 1)
            won_speculative[tid] = speculative
            if speculative:
                counters.speculative_wins += 1
                self.speculative_wins += 1
                log.info(
                    "speculative copy won: batch=%s kind=%s task=%s",
                    batch_index, kind, tid,
                )

        def salvage_and_rebuild(broken: BrokenProcessPool) -> None:
            # The pool died; every outstanding future is void.  Keep
            # results that completed but were not yet observed, drop the
            # corpse, and (within the resurrection budget) queue a fresh
            # attempt for *only* the still-unfinished tasks.
            nonlocal outstanding, resurrections_left
            for future, (tid, speculative) in list(pending.items()):
                if (
                    future.done()
                    and not future.cancelled()
                    and future.exception() is None
                    and not done[tid]
                ):
                    record_success(tid, future, speculative)
            pending.clear()
            outstanding = [0] * n
            self.close()
            if not remaining:
                to_submit.clear()
                return
            if resurrections_left <= 0:
                raise broken
            resurrections_left -= 1
            counters.resurrections += 1
            self.pool_resurrections += 1
            log.warning(
                "process pool broke (batch=%s kind=%s); resurrecting, "
                "%d unfinished task(s), %d rebuild(s) left",
                batch_index, kind, remaining, resurrections_left,
            )
            self.tracer.event(
                "pool_resurrection", batch=batch_index, kind=kind,
                unfinished=remaining,
            )
            to_submit[:] = [(tid, False) for tid in range(n) if not done[tid]]

        def launch_queued() -> None:
            # A worker can die while the driver is still submitting, in
            # which case ``pool.submit`` itself raises BrokenProcessPool
            # synchronously — the same failure as a broken future, so it
            # takes the same resurrection path instead of escaping the
            # wave (which would needlessly degrade the batch to serial).
            while to_submit:
                tid, speculative = to_submit[0]
                if done[tid]:
                    to_submit.pop(0)
                    continue
                if payloads[tid] is None:
                    payloads[tid] = self._pickle_payload(items[tid])
                try:
                    future = self._ensure_pool().submit(
                        worker, payloads[tid], attempts[tid]
                    )
                except BrokenProcessPool as exc:
                    salvage_and_rebuild(exc)  # refills/clears the queue
                    continue
                pending_attempt[future] = attempts[tid]
                attempts[tid] += 1
                outstanding[tid] += 1
                pending[future] = (tid, speculative)
                charge_attempt(tid)
                to_submit.pop(0)

        while remaining:
            launch_queued()
            if not remaining:
                break
            timeout = None
            if self.task_timeout is not None:
                horizon = min(deadlines[t] for t in range(n) if not done[t])
                timeout = max(0.0, horizon - time.monotonic())
            finished, _ = wait(
                list(pending), timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not finished:
                # A straggler deadline passed with nothing completing.
                now = time.monotonic()
                for tid in range(n):
                    if done[tid] or now < deadlines[tid]:
                        continue
                    counters.timeout_trips += 1
                    self.timeout_trips += 1
                    log.warning(
                        "task deadline tripped: batch=%s kind=%s task=%s "
                        "(outstanding %.3fs past %.3fs timeout)",
                        batch_index, kind, tid,
                        now - (deadlines[tid] - (self.task_timeout or 0.0)),
                        self.task_timeout or 0.0,
                    )
                    self.tracer.event(
                        "task_timeout", batch=batch_index, kind=kind, task_id=tid
                    )
                    deadlines[tid] = now + (self.task_timeout or 0.0)
                    if self.speculative and outstanding[tid] < 2:
                        # Duplicate the straggler: same payload, same
                        # seed — either copy's result is byte-identical.
                        self.tracer.event(
                            "task_speculate",
                            batch=batch_index, kind=kind, task_id=tid,
                        )
                        to_submit.append((tid, True))
                continue
            broken: BrokenProcessPool | None = None
            errors: list[tuple[int, BaseException]] = []
            for future in finished:
                tid, speculative = pending.pop(future)
                outstanding[tid] -= 1
                exc = future.exception()
                if exc is None:
                    if not done[tid]:  # a sibling copy may have won already
                        record_success(tid, future, speculative)
                elif isinstance(exc, BrokenProcessPool):
                    broken = exc
                elif not done[tid]:
                    errors.append((tid, exc))
            if broken is not None:
                salvage_and_rebuild(broken)
                continue
            for tid, exc in errors:
                if done[tid]:
                    continue
                failures[tid] += 1
                if not _is_retryable_error(exc) or failures[tid] > self.max_task_retries:
                    log.error(
                        "task failed permanently: batch=%s kind=%s task=%s "
                        "after %d failure(s): %s: %s",
                        batch_index, kind, tid, failures[tid],
                        type(exc).__name__, exc,
                    )
                    raise exc
                counters.retries += 1
                self.task_retries += 1
                log.warning(
                    "retrying task: batch=%s kind=%s task=%s "
                    "(failure %d/%d: %s)",
                    batch_index, kind, tid, failures[tid],
                    self.max_task_retries, type(exc).__name__,
                )
                self.tracer.event(
                    "task_retry",
                    batch=batch_index, kind=kind, task_id=tid,
                    failure=failures[tid], error=type(exc).__name__,
                )
                to_submit.append((tid, False))
        if self.tracer.enabled:
            # Stitch the winning attempts' worker-side spans in task-id
            # order — deterministic regardless of completion races.
            for tid, result in enumerate(results):
                span = getattr(result, "span", None)
                if span is None:
                    continue
                self.tracer.record(
                    f"{kind}_task",
                    span.start,
                    span.end,
                    pid=span.pid,
                    task_id=tid,
                    batch=batch_index,
                    attempt=won_attempt[tid],
                    retries=failures[tid],
                    speculative=won_speculative[tid],
                    payload_bytes=len(payloads[tid]),
                )
        return results

    # ------------------------------------------------------------------
    def run_batch(
        self,
        batch: PartitionedBatch,
        query: Query,
        partitioner: Partitioner,
        num_reducers: int,
        cost_model: TaskCostModel,
        topology: ClusterTopology | None = None,
    ) -> BatchExecution:
        if num_reducers < 1:
            raise ValueError(f"num_reducers must be >= 1, got {num_reducers}")
        allocate = partitioner.reduce_allocation()
        split = set(batch.split_keys)
        batch_index = batch.info.index
        counters = _WaveCounters()
        installs_before = self.context_installs
        context_bytes_before = self.context_bytes
        try:
            self._ensure_context(query, allocate, cost_model, self.tracer.enabled)
            map_results: list[MapTaskResult] = self._run_tasks(
                _map_task_delta_worker,
                [
                    (
                        self._generation,
                        batch_index,
                        block.index,
                        block,
                        num_reducers,
                        {k for k in split if k in block},
                    )
                    for block in batch.blocks
                ],
                counters,
                "map",
                batch_index,
            )
            # the shuffle runs on the driver from Map results in
            # block-id order, so bucket partial lists are canonical
            with self.tracer.span("shuffle", batch=batch_index):
                buckets: list[BucketInput] = shuffle_map_results(
                    map_results, num_reducers, topology
                )
            reduce_results: list[ReduceTaskResult] = self._run_tasks(
                _reduce_task_delta_worker,
                [
                    (self._generation, batch_index, bucket.bucket_index, bucket)
                    for bucket in buckets
                ],
                counters,
                "reduce",
                batch_index,
            )
        except BaseException as exc:
            if isinstance(exc, BrokenProcessPool):
                # Drop the corpse; the *next* batch rebuilds a fresh pool
                # lazily instead of pinning the rest of the run to serial.
                self.close()
            if self.fallback_to_serial and _is_infrastructure_error(exc):
                return self._serial_fallback(
                    exc, batch, query, partitioner, num_reducers, cost_model, topology
                )
            raise
        return BatchExecution(
            map_results=map_results,
            reduce_results=reduce_results,
            backend=self.name,
            task_attempts=counters.attempts,
            task_retries=counters.retries,
            pool_resurrections=counters.resurrections,
            speculative_wins=counters.speculative_wins,
            timeout_trips=counters.timeout_trips,
            payload_bytes=counters.payload_bytes,
            context_installs=self.context_installs - installs_before,
            context_bytes=self.context_bytes - context_bytes_before,
        )


EXECUTOR_NAMES: tuple[str, ...] = tuple(kind.value for kind in ExecutorKind)


def make_executor(
    name: str | ExecutorKind,
    *,
    max_workers: int | None = None,
    run_seed: int = 0,
    fallback_to_serial: bool = True,
    max_task_retries: int = 2,
    task_timeout: float | None = None,
    speculative: bool = False,
    max_pool_resurrections: int = 2,
    fault_injector: TaskFaultInjector | None = None,
) -> ExecutionBackend:
    """Build an execution backend by :class:`ExecutorKind` or its name.

    The fault-tolerance knobs (retries, timeout, speculation,
    resurrection budget, injector) only apply to the parallel backend;
    the serial reference executes tasks inline where there is nothing
    to retry, time out or resurrect.
    """
    try:
        kind = ExecutorKind(name)
    except ValueError:
        raise ValueError(
            f"unknown executor {name!r}; available: {', '.join(EXECUTOR_NAMES)}"
        ) from None
    if kind is ExecutorKind.SERIAL:
        return SerialExecutor(run_seed=run_seed)
    return ParallelExecutor(
        max_workers,
        run_seed=run_seed,
        fallback_to_serial=fallback_to_serial,
        max_task_retries=max_task_retries,
        task_timeout=task_timeout,
        speculative=speculative,
        max_pool_resurrections=max_pool_resurrections,
        fault_injector=fault_injector,
    )
