"""Map/Reduce task execution and the task cost model.

Eqn. 1 models the processing time of a batch as the sum of the longest
Map task and the longest Reduce task; the paper's whole argument is that
both task times grow monotonically with their input *size* (Problems I
and II) and that per-key aggregation across blocks adds Reduce overhead
(key locality, Sections 2.2.2/3.2).  The cost model encodes exactly that
dependence:

- ``MapTime  = map_fixed + map_per_tuple * |block| + map_per_key * ||block||``
- ``ReduceTime = reduce_fixed + reduce_per_tuple * |bucket|
                + reduce_per_fragment * fragments(bucket)``

where ``fragments(bucket)`` counts the (Map task, key) pairs whose
output lands in the bucket: the per-key partial results that must be
fetched and merged.  Shuffle-style partitioning scatters every hot key
over all blocks, inflating that term; hashing keeps it minimal but lets
``|block|`` and ``|bucket|`` skew — the trade-off Figure 10/11 measures.

Constants are calibrated so a simulated 4x4-core cluster sustains rates
in the tens of thousands of tuples per second with second-scale batch
intervals — laptop-scale stand-ins for the paper's EC2 numbers; the
*relative* behaviour between techniques is what carries over.

The module is factored into **pure per-task units** so execution
backends (:mod:`repro.engine.executors`) can dispatch the same work
serially or across worker processes and obtain bit-identical results:

- :func:`run_map_task` — one Map task over one data block,
- :func:`shuffle_map_results` — the deterministic driver-side shuffle,
- :func:`run_reduce_task` — one Reduce task over one bucket,
- :func:`derive_task_seed` — the per-task RNG seed, derived stably from
  ``(run_seed, batch_index, kind, task_id)`` so any future stochastic
  operator behaves identically under every backend.

:func:`execute_batch_tasks` strings them together in-process (the
serial reference semantics every other backend must match).
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import count
from operator import attrgetter
from typing import Collection, Mapping, Sequence

import numpy as np

from ..core.batch import DataBlock, MapInput, PartitionedBatch
from ..core.reduce_allocator import ClusterColumns
from ..core.tuples import Key
from ..obs.tracing import NULL_TRACER, Tracer, WorkerSpan
from ..partitioners.base import Partitioner, ReduceAllocation
from ..queries.base import Aggregator, Query
from .columns import KeyColumns, columns_of
from .topology import ClusterTopology

_GET_VALUE = attrgetter("value")

#: shared no-op context for untraced per-task loops — entering it costs
#: one bytecode-level call, versus building a fresh generator-backed
#: context manager per task through NullTracer.span (the dominant
#: dispatch-loop overhead when tracing is off)
_NULL_CM = nullcontext()

__all__ = [
    "TaskCostModel",
    "MapTaskResult",
    "ReduceTaskResult",
    "BucketInput",
    "BatchExecution",
    "derive_task_seed",
    "execute_map_task",
    "run_map_task",
    "shuffle_map_results",
    "run_reduce_task",
    "execute_batch_tasks",
]


def derive_task_seed(run_seed: int, batch_index: int, kind: str, task_id: int) -> int:
    """Stable 63-bit per-task seed from ``(run_seed, batch_index, kind, task_id)``.

    Uses BLAKE2b (never Python's salted ``hash``) so the same task gets
    the same seed in any process, interpreter restart, or backend —
    the determinism contract parallel execution must uphold.
    """
    material = f"{run_seed}:{batch_index}:{kind}:{task_id}".encode()
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True, slots=True)
class TaskCostModel:
    """Per-task simulated-time coefficients (seconds)."""

    map_fixed: float = 2e-3
    map_per_tuple: float = 8e-5
    map_per_key: float = 1e-4
    reduce_fixed: float = 2e-3
    reduce_per_tuple: float = 6e-5
    reduce_per_fragment: float = 5e-4
    #: extra cost per fragment fetched from a *remote* node; only
    #: charged when a ClusterTopology is supplied to execute_batch_tasks
    network_per_remote_fragment: float = 0.0

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def map_time(self, tuple_weight: int, key_count: int) -> float:
        return self.map_fixed + self.map_per_tuple * tuple_weight + self.map_per_key * key_count

    def reduce_time(
        self, bucket_weight: int, fragment_count: int, remote_fragments: int = 0
    ) -> float:
        return (
            self.reduce_fixed
            + self.reduce_per_tuple * bucket_weight
            + self.reduce_per_fragment * fragment_count
            + self.network_per_remote_fragment * remote_fragments
        )


@dataclass(slots=True)
class MapTaskResult:
    """Outcome of one Map task over one data block."""

    block_index: int
    input_weight: int
    input_cardinality: int
    #: the emitted keys, in block key order, and their cluster sizes
    clusters: ClusterColumns
    #: each cluster's Reduce bucket, in the order of ``clusters``
    buckets: list[int]
    duration: float
    # per-key aggregated partial value from this block (map-side results),
    # in the order of ``clusters.keys``
    partials: Mapping[Key, object]
    #: deterministic per-task seed (see :func:`derive_task_seed`)
    task_seed: int = 0
    #: measured wall-clock of the task body (real time, not simulated)
    wall_seconds: float = 0.0
    #: worker-side span measurement when tracing is on (observational
    #: wall-clock only — excluded from equality like the other measured
    #: fields, so traced runs compare identical to untraced ones)
    span: WorkerSpan | None = field(default=None, compare=False)


@dataclass(slots=True)
class ReduceTaskResult:
    """Outcome of one Reduce task over one bucket."""

    bucket_index: int
    input_weight: int
    fragment_count: int
    key_count: int
    duration: float
    # final per-key aggregate for keys owned by this bucket
    results: Mapping[Key, object]
    # fragments fetched across the network (0 without a topology)
    remote_fragments: int = 0
    #: deterministic per-task seed (see :func:`derive_task_seed`)
    task_seed: int = 0
    #: measured wall-clock of the task body (real time, not simulated)
    wall_seconds: float = 0.0
    #: worker-side span measurement when tracing is on (observational
    #: wall-clock only — excluded from equality like the other measured
    #: fields, so traced runs compare identical to untraced ones)
    span: WorkerSpan | None = field(default=None, compare=False)


@dataclass(slots=True)
class BucketInput:
    """Everything the shuffle delivers to one Reduce task."""

    bucket_index: int
    weight: int
    fragment_count: int
    remote_fragments: int
    #: three aligned columns, one entry per fragment routed here: Map
    #: results in block order and each in its own key order, so a split
    #: key's partials arrive in block order.  ``codes`` holds batch-local
    #: key codes, numbered by each key's first fragment in that order.
    keys: list[Key]
    codes: np.ndarray
    partials: list[object]


@dataclass(slots=True)
class BatchExecution:
    """Everything produced by running one batch's Map-Reduce computation."""

    map_results: list[MapTaskResult]
    reduce_results: list[ReduceTaskResult]
    #: which execution backend produced this batch ("serial"/"parallel")
    backend: str = "serial"
    #: fault-tolerance tallies for this batch's dispatch (the parallel
    #: backend fills them; the serial reference has nothing to retry or
    #: resurrect, so they stay 0)
    task_attempts: int = 0
    task_retries: int = 0
    pool_resurrections: int = 0
    #: driver→worker dispatch bytes for this batch: pickled payload
    #: bytes summed over every launched attempt, plus any run-context
    #: broadcasts (installs × blob size) that happened during the batch.
    #: Serial execution ships nothing, so all three stay 0.
    payload_bytes: int = 0
    context_installs: int = 0
    context_bytes: int = 0

    @property
    def map_durations(self) -> list[float]:
        return [m.duration for m in self.map_results]

    @property
    def reduce_durations(self) -> list[float]:
        return [r.duration for r in self.reduce_results]

    @property
    def map_wall_seconds(self) -> list[float]:
        """Measured wall-clock of each Map task (real time)."""
        return [m.wall_seconds for m in self.map_results]

    @property
    def reduce_wall_seconds(self) -> list[float]:
        """Measured wall-clock of each Reduce task (real time)."""
        return [r.wall_seconds for r in self.reduce_results]

    def batch_output(self) -> KeyColumns:
        """The batch's per-key aggregate: every Reduce output in bucket
        order.  The shuffle asserted key locality, so no key repeats."""
        keys: list[Key] = []
        values: list[object] = []
        for r in self.reduce_results:
            k, v = columns_of(r.results)
            keys += k
            values += v
        return KeyColumns(keys, values)


def execute_map_task(
    block: DataBlock | MapInput,
    query: Query,
    cost_model: TaskCostModel,
) -> tuple[ClusterColumns, KeyColumns, float]:
    """Apply the query's Map function over one block.

    Returns the intermediate key clusters (as aligned key/size columns,
    in the block's key order, with the block's order-token ranks when it
    has them), the map-side per-key partial aggregates, and the task
    duration.  The Map stage is charged for every *input* tuple —
    filtered-out tuples still cost their scan.  Both block shapes hold a
    ``keys`` column and a ``fragments`` column aligned with it: the
    serial reference hands in the :class:`DataBlock` and its tuple
    chains are read in place (a value-column copy per fragment measured
    2-3 % off ``synd_skew_wc``, EXPERIMENTS.md), a worker process the
    :class:`MapInput` it was shipped, whose fragments already are the
    values.

    A query with a block form (:meth:`Query.block_form`) folds each
    fragment in one call; any other query hands each fragment's values
    to its aggregator's :meth:`~repro.queries.base.Aggregator.fold`,
    which runs the Map function and the fold per value.

    Cluster sizes model the shuffle payload: for map-side-combining
    (algebraic) queries a fragment collapses to one partial record, so
    the cluster size is 1; holistic queries ship the full values list,
    so the size is the emitted tuple count.
    """
    fragments = block.fragments
    ranks = block.ranks
    combine = query.map_side_combine
    fold = query.block_form()
    if fold is not None:
        # a block form emits every tuple of the fragment
        keys = block.keys[:]
        parts = list(map(fold, fragments))
        sizes = [1] * len(keys) if combine else list(map(len, fragments))
    else:
        keys, sizes, parts, kept = [], [], [], []
        map_fn = query.map_fn
        fold_fragment = query.aggregator.fold
        shipped = isinstance(block, MapInput)
        for i, key, fragment in zip(count(), block.keys, fragments):
            acc, emitted = fold_fragment(
                key, fragment if shipped else map(_GET_VALUE, fragment), map_fn
            )
            if emitted:
                keys.append(key)
                sizes.append(1 if combine else emitted)
                parts.append(acc)
                kept.append(i)
        if ranks is not None and len(kept) < len(fragments):
            ranks = ranks[np.array(kept, dtype=np.intp)]
    duration = cost_model.map_time(block.size, block.cardinality)
    return ClusterColumns(keys, sizes, ranks), KeyColumns(keys, parts), duration


def run_map_task(
    block: DataBlock | MapInput,
    query: Query,
    allocate: ReduceAllocation,
    num_reducers: int,
    split_keys: Collection[Key],
    cost_model: TaskCostModel,
    task_seed: int = 0,
) -> MapTaskResult:
    """One complete Map task: map the block, then route its clusters.

    Pure in its inputs (``allocate`` must be a pure callable), so the
    result is identical whether it runs inline or in a worker process.
    ``split_keys`` may be any superset of the block's split keys — only
    membership of the block's own cluster keys is consulted.
    """
    started = time.perf_counter()
    clusters, partials, duration = execute_map_task(block, query, cost_model)
    block_split = {k for k in split_keys if k in partials}
    buckets = allocate(clusters, block_split, num_reducers)
    return MapTaskResult(
        block_index=block.index,
        input_weight=block.size,
        input_cardinality=block.cardinality,
        clusters=clusters,
        buckets=buckets,
        duration=duration,
        partials=partials,
        task_seed=task_seed,
        wall_seconds=time.perf_counter() - started,
    )


def shuffle_map_results(
    map_results: Sequence[MapTaskResult],
    num_reducers: int,
    topology: ClusterTopology | None = None,
) -> list[BucketInput]:
    """Gather every Map task's fragments per Reduce bucket (driver-side).

    Concatenates the Map results' key, partial, size and bucket columns
    in block order (each task's in its own key order) and groups them by
    bucket with one stable argsort, so every bucket's columns have a
    stable order — the property that makes downstream Reduce outputs
    byte-identical across backends.  Asserts key locality: a key routed
    to two buckets is a hard failure, and so is a bucket column whose
    length is not its Map task's cluster count.
    """
    keys: list[Key] = []
    parts: list[object] = []
    sizes: list[int] = []
    routes: list[int] = []
    for m in map_results:
        if len(m.buckets) != len(m.clusters):
            raise ValueError(
                f"Map task {m.block_index} routed {len(m.buckets)} clusters "
                f"of the {len(m.clusters)} it emitted"
            )
        keys += m.clusters.keys
        parts += columns_of(m.partials)[1]
        sizes += m.clusters.sizes
        routes += m.buckets
    n = len(keys)
    buckets = np.array(routes, dtype=np.intp)
    stray = np.flatnonzero((buckets < 0) | (buckets >= num_reducers))
    if stray.size:
        i = int(stray[0])
        task_ends = np.cumsum([len(m.clusters) for m in map_results])
        m = map_results[int(np.searchsorted(task_ends, i, side="right"))]
        raise ValueError(
            f"Map task {m.block_index} routed key {keys[i]!r} to bucket "
            f"{routes[i]}, outside the {num_reducers} Reduce buckets"
        )
    if num_reducers <= 32767:
        buckets = buckets.astype(np.int16)  # a 16-bit stable sort is a radix sort
    # Only a key emitted by two Map tasks repeats, and only such a key can
    # be routed to two buckets.
    distinct = dict.fromkeys(keys)
    if len(distinct) == n:
        codes = np.arange(n)
    else:
        code_of = dict(zip(distinct, count()))
        codes = np.fromiter(map(code_of.__getitem__, keys), dtype=np.intp, count=n)
        # codes rise at each key's first fragment: its route is the owner
        owner = buckets[np.diff(np.maximum.accumulate(codes), prepend=-1) > 0]
        moved = np.flatnonzero(owner[codes] != buckets)
        if moved.size:
            i = moved[0]
            raise AssertionError(
                f"key locality violated: {keys[i]!r} sent to buckets "
                f"{owner[codes[i]]} and {buckets[i]}"
            )
    order = np.argsort(buckets, kind="stable")
    ends = np.cumsum(np.bincount(buckets, minlength=num_reducers)).tolist()
    weights = np.bincount(
        buckets, weights=np.array(sizes, dtype=np.float64), minlength=num_reducers
    )
    remote = np.zeros(num_reducers, dtype=np.intp)
    if topology is not None:
        local = np.array(
            [[topology.is_local(m.block_index, j) for j in range(num_reducers)]
             for m in map_results],
            dtype=bool,
        ).reshape(len(map_results), num_reducers)
        task = np.repeat(np.arange(len(map_results)), [len(m.clusters) for m in map_results])
        remote = np.bincount(
            buckets[~local[task, buckets]], minlength=num_reducers
        )
    keys = np.fromiter(keys, dtype=object, count=n)[order].tolist()
    parts = np.fromiter(parts, dtype=object, count=n)[order].tolist()
    codes = codes[order].astype(np.min_scalar_type(-n))  # narrow on the wire
    return [
        BucketInput(
            bucket_index=j,
            weight=int(weights[j]),
            fragment_count=hi - lo,
            remote_fragments=int(remote[j]),
            keys=keys[lo:hi],
            codes=codes[lo:hi],
            partials=parts[lo:hi],
        )
        for j, (lo, hi) in enumerate(zip([0] + ends, ends))
    ]


def run_reduce_task(
    bucket: BucketInput,
    aggregator: Aggregator,
    cost_model: TaskCostModel,
    task_seed: int = 0,
) -> ReduceTaskResult:
    """One complete Reduce task: merge each key's partials in fragment order.

    Codes rise with each key's first fragment, so strictly rising codes
    mean every key has one fragment: the columns are the result as they
    are.  A bucket holding a split key folds its fragments with the
    aggregator's :meth:`~repro.queries.base.Aggregator.merge_all`, which
    merges only the repeated keys, left to right.
    """
    started = time.perf_counter()
    codes = bucket.codes
    if (codes[1:] > codes[:-1]).all():
        results = KeyColumns(bucket.keys, bucket.partials)
    else:
        merged = aggregator.merge_all(list(zip(bucket.keys, bucket.partials)))
        results = KeyColumns(list(merged), list(merged.values()))
    duration = cost_model.reduce_time(
        bucket.weight, bucket.fragment_count, bucket.remote_fragments
    )
    return ReduceTaskResult(
        bucket_index=bucket.bucket_index,
        input_weight=bucket.weight,
        fragment_count=bucket.fragment_count,
        key_count=len(results),
        duration=duration,
        results=results,
        remote_fragments=bucket.remote_fragments,
        task_seed=task_seed,
        wall_seconds=time.perf_counter() - started,
    )


def execute_batch_tasks(
    batch: PartitionedBatch,
    query: Query,
    partitioner: Partitioner,
    num_reducers: int,
    cost_model: TaskCostModel,
    topology: ClusterTopology | None = None,
    run_seed: int = 0,
    tracer: Tracer = NULL_TRACER,
) -> BatchExecution:
    """Run the full Map -> shuffle -> Reduce computation of one batch.

    Each Map task routes its clusters to Reduce buckets through the
    technique's own allocator (hashing for all baselines, Algorithm 3
    for Prompt).  Reduce tasks then merge, per key, the partial results
    of every contributing Map task.  With a ``topology``, fragments
    fetched from Map tasks on other nodes additionally pay the cost
    model's network term.

    This is the serial reference implementation; execution backends in
    :mod:`repro.engine.executors` reuse the same per-task units and must
    reproduce its output bit-for-bit.
    """
    if num_reducers < 1:
        raise ValueError(f"num_reducers must be >= 1, got {num_reducers}")
    allocate = partitioner.reduce_allocation()
    split = set(batch.split_keys)
    batch_index = batch.info.index
    traced = tracer.enabled
    map_results = []
    for block in batch.blocks:
        with (
            tracer.span(
                "map_task", task_id=block.index, batch=batch_index, attempt=0
            )
            if traced
            else _NULL_CM
        ):
            map_results.append(
                run_map_task(
                    block,
                    query,
                    allocate,
                    num_reducers,
                    {k for k in split if k in block},
                    cost_model,
                    task_seed=derive_task_seed(
                        run_seed, batch_index, "map", block.index
                    ),
                )
            )
    with tracer.span("shuffle", batch=batch_index):
        buckets = shuffle_map_results(map_results, num_reducers, topology)
    reduce_results = []
    for bucket in buckets:
        with (
            tracer.span(
                "reduce_task", task_id=bucket.bucket_index,
                batch=batch_index, attempt=0,
            )
            if traced
            else _NULL_CM
        ):
            reduce_results.append(
                run_reduce_task(
                    bucket,
                    query.aggregator,
                    cost_model,
                    task_seed=derive_task_seed(
                        run_seed, batch_index, "reduce", bucket.bucket_index
                    ),
                )
            )
    return BatchExecution(
        map_results=map_results, reduce_results=reduce_results, backend="serial"
    )
