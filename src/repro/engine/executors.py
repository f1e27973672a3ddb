"""Pluggable execution backends for the Map -> shuffle -> Reduce pipeline.

The engine used to run every task inline; this module makes the task
dispatch a strategy so the load-balanced blocks that Algorithm 2
equalizes are actually *processed concurrently* — the operating regime
the paper's Eqn. 1 (makespan = longest Map + longest Reduce task)
assumes.  Two backends ship:

- :class:`SerialExecutor` — the extracted in-process reference loop.
- :class:`ParallelExecutor` — a ``ProcessPoolExecutor`` running one Map
  task per data block and one Reduce task per bucket, submitted as one
  *bundle* of consecutive tasks per worker per round.

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
delta of ``(context_generation, batch_index, task_id, map-input-or-bucket,
…)``; the worker derives the task seed and looks up its injected fault
from the resident context.  A Map delta carries its block as a
:class:`~repro.core.batch.MapInput` — index, summed weight, the key
column and one value column per key, which is all ``Map(k, v)`` reads,
plus the narrow column of Algorithm 1's order-token ranks that
Algorithm 3 breaks ties on — so no tuple object, timestamp or per-tuple
weight ever crosses the process boundary.  A
pool resurrected after a ``BrokenProcessPool`` re-installs the current
context automatically (the rebuilt pool's initializer carries it), and
a worker handed a delta stamped with a generation it never saw raises
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
  resubmitted, up to :data:`MAX_TASK_RETRIES` times per task.  The retry
  reuses the *same payload* and therefore the same derived seed:
  retried runs remain bit-identical to clean runs.
- **Pool resurrection** — a ``BrokenProcessPool`` voids every task of
  every bundle that had not come back; the pool is rebuilt and only
  those tasks are resubmitted; the results of completed bundles are
  kept.  Up to :data:`MAX_POOL_RESURRECTIONS` rebuilds per task wave;
  past the budget, the batch degrades to the serial fallback — and the
  *next* batch tries a fresh pool again instead of pinning the rest of
  the run to serial.

Both budgets are fixed policy, not configuration.  A wave runs in
*rounds* (deal the unfinished tasks to at most ``max_workers`` bundles
of consecutive task ids, one submission each; gather in task-id order;
carry the failed and voided ones over), so a retry starts once its
round has been gathered.  A bundle returns one outcome per task, so
failures are still classified — and attempts, retries and payload bytes
still counted — per task.  There is no per-task deadline and no
duplicate attempt: a slow task here is slow because of its block
(Eqn. 1), and a copy over the same block is exactly as slow (retired,
see EXPERIMENTS.md).

Counters for all of this (attempts, retries, resurrections) are kept
per run on the executor itself and surface per batch on
:class:`~repro.engine.tasks.BatchExecution` as the run totals' change
across the batch; the engine folds them into ``BatchRecord``/``RunStats``
as ``compare=False`` fields so differential equality is unaffected.
Injected faults for testing come from
:class:`~repro.engine.faults.TaskFaultInjector`.

**Fallback.**  Pool *infrastructure* failures degrade gracefully to
in-process execution for the affected batch — serial semantics are the
reference, so the answer is unchanged; the event is counted on
``fallbacks``/noted on ``last_fallback_reason``.  Classification is by
raise-site: each payload is pickled in the driver when the bundle of
its first attempt is launched, so serialization failures are caught
there and wrapped in :class:`PayloadSerializationError`; an exception
raised *by* a task in a worker (a query bug — even one whose message mentions
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
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import zip_longest
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
#: failed attempts of one task that are re-executed before its own
#: exception propagates, and broken-pool rebuilds per task wave before
#: the batch degrades to the serial fallback.  Constants, not options:
#: tests that need an exhausted budget shape the fault plan
#: (``crash(..., times=3)``, ``poison(..., times=3)``) instead.
MAX_TASK_RETRIES = 2
MAX_POOL_RESURRECTIONS = 2


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

    The delta carries ``(generation, batch_index, task_id, map_input,
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


class _WorkerTraceback(Exception):
    """A worker-side traceback's text, set as the ``__cause__`` of the
    task exception it belongs to (tracebacks do not pickle; this is how
    ``concurrent.futures`` ships them for a whole-future failure)."""


def _run_bundle(
    worker: Callable[[bytes, int], object],
    tasks: Sequence[tuple[bytes, int]],
) -> list[tuple[object, Exception | None, str]]:
    """Pool entry point: run one worker's share of a round, in order.

    ``tasks`` are ``(payload, attempt)`` pairs.  Returns one ``(result,
    exception, traceback text)`` outcome per task: a task's *own*
    exception is captured in its slot, so it costs its bundle-mates
    nothing and the driver can classify every task separately.
    """
    outcomes: list[tuple[object, Exception | None, str]] = []
    for payload, attempt in tasks:
        try:
            outcomes.append((worker(payload, attempt), None, ""))
        except Exception as exc:
            outcomes.append((None, exc, traceback.format_exc()))
    return outcomes


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


#: run totals on the backend whose change across one ``run_batch`` call
#: is that batch's :class:`~repro.engine.tasks.BatchExecution` tally
_BATCH_COUNTERS: tuple[str, ...] = (
    "task_attempts",
    "task_retries",
    "pool_resurrections",
    "payload_bytes",
    "context_installs",
    "context_bytes",
)

#: histogram bounds for driver→worker payload sizes (bytes, not seconds)
PAYLOAD_BYTE_BUCKETS: tuple[float, ...] = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0, 4194304.0, 16777216.0,
)


class ParallelExecutor(ExecutionBackend):
    """Process-pool execution: one Map task per block, one Reduce per
    bucket, one submission per worker per round.

    The pool is created lazily on the first batch and reused for the
    whole run (fork start method where the platform offers it, so
    workers inherit the loaded modules instead of re-importing).  The
    run-invariant slice — query, allocation callable, cost model, fault
    table, trace flag, run seed — is broadcast once per pool generation
    as a :class:`RunContext` and each task ships only a
    generation-stamped delta (its block's value columns, or its bucket).
    Payloads never carry engine or partitioner state or tuple objects,
    and they double as the task's replicated input: any attempt can be
    re-run from them deterministically (see the module docstring for
    the retry/resurrection rules).
    """

    name = "parallel"

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        run_seed: int = 0,
        fault_injector: TaskFaultInjector | None = None,
    ) -> None:
        super().__init__(run_seed=run_seed)
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self.fault_injector = fault_injector
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
        kind: str = "task",
        batch_index: int = -1,
    ) -> list:
        """Run one wave of tasks in rounds, with retries and resurrection.

        Each round splits the unfinished task ids into at most
        ``max_workers`` contiguous *bundles* and makes one pool
        submission per bundle (:func:`_run_bundle`), gathers the bundles
        in order, keeps what completed and carries the failed (within
        :data:`MAX_TASK_RETRIES`) and voided (their pool died before
        their bundle came back) tasks into the next round — a retry
        round is just a round whose bundles hold fewer tasks.  Failures
        are classified per task: a bundle returns one outcome per task,
        so one failing task neither hides nor voids its bundle-mates.
        Results come back indexed by submission position (= task id),
        which is what keeps the downstream merge deterministic no matter
        how attempts failed.  When tracing is on, each task's
        worker-side span is stitched into the driver trace in task-id
        order and retries and pool rebuilds are marked with
        zero-duration events.

        ``items`` are the unpickled task deltas.  Each is pickled *per
        task* when the bundle of its first attempt is launched — so
        bundle 0 is already running in a worker while bundle 1's blocks
        are being serialized — and the bytes are kept for retries.
        """
        n = len(items)
        payloads: list[Optional[bytes]] = [None] * n
        results: list = [None] * n
        attempts = [0] * n  # launches so far == next attempt index
        failures = [0] * n  # failed attempts charged against the retry budget
        unfinished = list(range(n))
        resurrections_left = MAX_POOL_RESURRECTIONS
        payload_histogram = self.metrics.histogram(
            "prompt_task_payload_bytes",
            "Pickled driver-to-worker payload size per task attempt",
            buckets=PAYLOAD_BYTE_BUCKETS,
        )
        while unfinished:
            per_bundle = -(-len(unfinished) // self.max_workers)
            bundles = [
                unfinished[i : i + per_bundle]
                for i in range(0, len(unfinished), per_bundle)
            ]
            futures: list[Future] = []
            broken: BrokenProcessPool | None = None
            for bundle in bundles:
                for tid in bundle:
                    if payloads[tid] is None:
                        payloads[tid] = self._pickle_payload(items[tid])
                try:
                    futures.append(
                        self._ensure_pool().submit(
                            _run_bundle,
                            worker,
                            [(payloads[tid], attempts[tid]) for tid in bundle],
                        )
                    )
                except BrokenProcessPool as exc:
                    # A worker can die while the driver is still
                    # submitting (or the install probe can hit a dead
                    # pool): the same failure as a broken future, so
                    # the unlaunched bundles are voided like the rest.
                    broken = exc
                    break
                for tid in bundle:
                    attempts[tid] += 1
                    self.task_attempts += 1
                    # every launched attempt ships its payload again, so
                    # the byte accounting charges per attempt, not per task
                    nbytes = len(payloads[tid])
                    self.payload_bytes += nbytes
                    payload_histogram.observe(nbytes)
            carried: list[int] = []
            for bundle, future in zip_longest(bundles, futures):
                lost = broken if future is None else future.exception()
                if isinstance(lost, BrokenProcessPool):
                    broken = lost
                    carried.extend(bundle)
                    continue
                if lost is not None:
                    # not a task's own failure (those come back in their
                    # slots): the bundle's results could not be shipped
                    raise lost
                for tid, (result, exc, remote_tb) in zip(bundle, future.result()):
                    if exc is None:
                        results[tid] = result
                        continue
                    exc.__cause__ = _WorkerTraceback(remote_tb)
                    carried.append(tid)
                    failures[tid] += 1
                    if (
                        not isinstance(exc, RETRYABLE_TASK_ERRORS)
                        or failures[tid] > MAX_TASK_RETRIES
                    ):
                        log.error(
                            "task failed permanently: batch=%s kind=%s task=%s "
                            "after %d failure(s): %s: %s",
                            batch_index, kind, tid, failures[tid],
                            type(exc).__name__, exc,
                        )
                        raise exc
                    self.task_retries += 1
                    log.warning(
                        "retrying task: batch=%s kind=%s task=%s "
                        "(failure %d/%d: %s)",
                        batch_index, kind, tid, failures[tid],
                        MAX_TASK_RETRIES, type(exc).__name__,
                    )
                    self.tracer.event(
                        "task_retry",
                        batch=batch_index, kind=kind, task_id=tid,
                        failure=failures[tid], error=type(exc).__name__,
                    )
            unfinished = carried
            if broken is None:
                continue
            # The pool died; every bundle it had not returned is void.
            # Drop the corpse and (within the resurrection budget) let the
            # next round rebuild it for *only* the still-unfinished tasks.
            self.close()
            if not unfinished:
                break
            if resurrections_left <= 0:
                raise broken
            resurrections_left -= 1
            self.pool_resurrections += 1
            log.warning(
                "process pool broke (batch=%s kind=%s); resurrecting, "
                "%d unfinished task(s), %d rebuild(s) left",
                batch_index, kind, len(unfinished), resurrections_left,
            )
            self.tracer.event(
                "pool_resurrection", batch=batch_index, kind=kind,
                unfinished=len(unfinished),
            )
        if self.tracer.enabled:
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
                    # one live attempt per task: the last launch won
                    attempt=attempts[tid] - 1,
                    retries=failures[tid],
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
        before = [getattr(self, name) for name in _BATCH_COUNTERS]
        try:
            self._ensure_context(query, allocate, cost_model, self.tracer.enabled)
            map_results: list[MapTaskResult] = self._run_tasks(
                _map_task_delta_worker,
                [
                    (
                        self._generation,
                        batch_index,
                        block.index,
                        block.map_input(),
                        num_reducers,
                        {k for k in split if k in block},
                    )
                    for block in batch.blocks
                ],
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
                "reduce",
                batch_index,
            )
        except BaseException as exc:
            if isinstance(exc, BrokenProcessPool):
                # Drop the corpse; the *next* batch rebuilds a fresh pool
                # lazily instead of pinning the rest of the run to serial.
                self.close()
            if _is_infrastructure_error(exc):
                return self._serial_fallback(
                    exc, batch, query, partitioner, num_reducers, cost_model, topology
                )
            raise
        return BatchExecution(
            map_results=map_results,
            reduce_results=reduce_results,
            backend=self.name,
            **{
                name: getattr(self, name) - start
                for name, start in zip(_BATCH_COUNTERS, before)
            },
        )


EXECUTOR_NAMES: tuple[str, ...] = tuple(kind.value for kind in ExecutorKind)


def make_executor(
    name: str | ExecutorKind,
    *,
    max_workers: int | None = None,
    run_seed: int = 0,
    fault_injector: TaskFaultInjector | None = None,
) -> ExecutionBackend:
    """Build an execution backend by :class:`ExecutorKind` or its name.

    ``max_workers`` and ``fault_injector`` only apply to the parallel
    backend; the serial reference executes tasks inline where there is
    nothing to retry or resurrect.
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
        fault_injector=fault_injector,
    )
