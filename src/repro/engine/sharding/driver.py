"""The sharded driver: one router, N engines, M tenants.

:class:`ShardedEngine` fans a multi-tenant union stream across N
independent :class:`~repro.engine.engine.MicroBatchEngine` instances.
Each shard is a full engine — its own partitioner instance, executor
pool, pipeline, fault tolerance, and observability — consuming a
:class:`ShardSource` view that keeps exactly the tenants the
:class:`~repro.engine.sharding.router.RoutingTable` assigns to it.

Execution model: shards run round-robin over the same batch timeline.
The engines share the virtual clock semantics (batch ``k`` spans
``[k*I, (k+1)*I)`` on every shard), so the driver can run them
sequentially and the result is observationally identical to N drivers
ticking in lock-step — all "processing time" comes from the simulated
cost model, not wall-clock interleaving.

Correctness contract (proven by
``tests/engine/test_sharding_equivalence.py``): the union of the shards'
batch-``k`` inputs equals the single-engine batch-``k`` input tenant by
tenant, so merging per-shard window answers with the query's own
``aggregator.merge`` reproduces each tenant's single-engine answers
byte-for-byte — through router strategies, executors, shard-scoped
faults, and mid-run rebalances.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Hashable, Iterable, Mapping, Optional, Sequence

from ...obs import ObservabilityConfig, RunObservability
from ...partitioners import make_partitioner
from ...partitioners.base import Partitioner
from ...queries.base import Query
from ...workloads.source import StreamSource
from ...workloads.tenants import tenant_of
from ..engine import EngineConfig, MicroBatchEngine, RunResult
from ..faults import TaskFaultInjector
from .merge import merge_window_answers, tenant_slice
from .router import Rebalance, RoutingTable, ShardRouter, make_router

__all__ = ["ShardSource", "ShardedEngine", "ShardedRunResult"]

#: boundary tolerance when mapping a timestamp to its batch epoch —
#: sources emit ts >= 0 and generators never land within 1e-9 of a
#: boundary, so this only guards against float-division jitter
_EPOCH_EPS = 1e-9


class ShardSource(StreamSource):
    """One shard's view of the union stream.

    Filters the union to the tenants the routing table assigns to this
    shard in each tuple's *batch epoch* (``floor(ts / batch_interval)``),
    so a rebalanced tenant switches shards exactly at the declared batch
    boundary.  ``reset()`` rewinds the shared union source: shards run
    sequentially, each replaying the identical union stream.
    """

    def __init__(
        self,
        union: StreamSource,
        table: RoutingTable,
        shard: int,
        batch_interval: float,
    ) -> None:
        if batch_interval <= 0:
            raise ValueError("batch_interval must be positive")
        self.union = union
        self.table = table
        self.shard = shard
        self.batch_interval = batch_interval
        self.name = f"shard{shard}:{union.name}"

    def _epoch(self, ts: float) -> int:
        return int((ts + _EPOCH_EPS) // self.batch_interval)

    def tuples_between(self, t0: float, t1: float) -> list[Any]:
        shard, table = self.shard, self.table
        return [
            t
            for t in self.union.tuples_between(t0, t1)
            if table.shard_for(tenant_of(t.key), self._epoch(t.ts)) == shard
        ]

    def reset(self) -> None:
        self.union.reset()


@dataclass
class ShardedRunResult:
    """Everything a finished sharded run exposes.

    ``window_answers`` holds the cross-shard merged answers in canonical
    (tenant, key) order; ``shard_results`` keeps each shard's full
    :class:`~repro.engine.engine.RunResult` for per-shard inspection
    (stats, recoveries, executor counters).
    """

    shard_results: tuple[RunResult, ...]
    window_answers: list[dict[Hashable, Any]]
    router_name: str
    num_shards: int
    table: RoutingTable
    tenant_shards: dict[Hashable, tuple[int, ...]]
    observability: Optional[RunObservability] = field(default=None, compare=False)

    @property
    def stable(self) -> bool:
        return all(r.stable for r in self.shard_results)

    def final_window_answer(self) -> dict[Hashable, Any]:
        return self.window_answers[-1] if self.window_answers else {}

    def tenant_answers(self, tenant: Hashable) -> list[dict[Hashable, Any]]:
        """One tenant's slice of every merged window answer."""
        return [tenant_slice(w, tenant) for w in self.window_answers]

    def throughput(self) -> float:
        """Aggregate tuples/sec: the sum of per-shard throughputs."""
        return sum(r.stats.throughput() for r in self.shard_results)

    def total_tuples(self) -> int:
        return sum(
            rec.tuple_count for r in self.shard_results for rec in r.stats.records
        )

    def mean_load(self) -> float:
        """Mean per-shard relative load W (processing time / interval)."""
        loads = [r.stats.mean_load() for r in self.shard_results]
        return sum(loads) / len(loads) if loads else 0.0


class ShardedEngine:
    """Run a multi-tenant stream across N independent engine shards."""

    def __init__(
        self,
        partitioner: str | Partitioner,
        query: Query,
        config: EngineConfig | None = None,
        *,
        num_shards: int,
        router: str | ShardRouter = "hash",
        rebalances: Iterable[Rebalance] = (),
        shard_faults: Iterable[TaskFaultInjector] = (),
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.query = query
        self.config = config or EngineConfig()
        if self.config.batch_sizing is not None:
            raise ValueError(
                "sharded runs require a fixed batch interval; adaptive "
                "batch_sizing would let shards disagree on batch boundaries"
            )
        if self.config.lateness is not None:
            raise ValueError(
                "sharded runs do not support lateness contracts: the "
                "admission watermark would mix tenants and break the "
                "per-tenant differential guarantee"
            )
        self.num_shards = num_shards
        if isinstance(router, str):
            router = make_router(router, num_shards)
        elif router.num_shards != num_shards:
            raise ValueError(
                f"router built for {router.num_shards} shards, engine has "
                f"{num_shards}"
            )
        self.router = router
        self._rebalances: list[Rebalance] = list(rebalances)
        self._shard_faults: dict[int, TaskFaultInjector] = {}
        for injector in shard_faults:
            if injector.shard is None:
                raise ValueError(
                    "shard_faults entries must be shard-scoped — use "
                    "TaskFaultInjector(shard=i) or the kill_shard/"
                    "crash_shard helpers"
                )
            if not 0 <= injector.shard < num_shards:
                raise ValueError(
                    f"fault injector scoped to shard {injector.shard}, but "
                    f"only {num_shards} shards exist"
                )
            if injector.shard in self._shard_faults:
                raise ValueError(
                    f"multiple fault injectors scoped to shard {injector.shard}"
                )
            self._shard_faults[injector.shard] = injector
        # the per-shard partitioner factory: a registry name constructs
        # fresh, an instance is cloned through pickle (every registered
        # partitioner is picklable — the parallel backend requires it)
        if isinstance(partitioner, str):
            self._partitioner_name: Optional[str] = partitioner
            self._partitioner_blob: Optional[bytes] = None
        else:
            self._partitioner_name = None
            self._partitioner_blob = pickle.dumps(partitioner)

    # ------------------------------------------------------------------
    def rebalance(
        self, tenant: Hashable, to_shard: int, *, at_batch: int
    ) -> "ShardedEngine":
        """Declare a tenant migration effective from batch ``at_batch``.

        Must be called before :meth:`run`: the handoff is part of the
        pre-declared routing plan, which is what keeps it deterministic.
        """
        self._rebalances.append(Rebalance(tenant, to_shard, at_batch))
        return self

    def _make_partitioner(self) -> Partitioner:
        if self._partitioner_name is not None:
            return make_partitioner(self._partitioner_name)
        return pickle.loads(self._partitioner_blob)  # type: ignore[arg-type]

    def _shard_config(self) -> EngineConfig:
        base = self.config.observability
        if base is not None and base.enabled:
            # shards keep spans/metrics in memory; the driver rolls them
            # up and honours the caller's export paths once, run-level
            shard_obs: Optional[ObservabilityConfig] = ObservabilityConfig()
        else:
            shard_obs = None
        return replace(self.config, observability=shard_obs)

    # ------------------------------------------------------------------
    def run(self, source: StreamSource, num_batches: int) -> ShardedRunResult:
        """Run all shards over ``source`` (a tenant-tagged union stream)."""
        table = RoutingTable(self.router, self._rebalances)
        shard_config = self._shard_config()
        rollup: Optional[RunObservability] = None
        if self.config.observability is not None and self.config.observability.enabled:
            rollup = RunObservability(self.config.observability)
            rollup.metrics.gauge(
                "prompt_shard_count", "shards in the sharded topology"
            ).set(self.num_shards)
            rollup.metrics.counter(
                "prompt_shard_rebalances_total",
                "tenant migrations declared in the routing plan",
            ).inc(float(len(self._rebalances)))

        results: list[RunResult] = []
        for shard in range(self.num_shards):
            engine = MicroBatchEngine(
                self._make_partitioner(),
                self.query,
                shard_config,
                task_fault_injector=self._shard_faults.get(shard),
            )
            view = ShardSource(source, table, shard, self.config.batch_interval)
            result = engine.run(view, num_batches=num_batches)
            results.append(result)
            if rollup is not None and result.observability is not None:
                rollup.metrics.merge_from(
                    result.observability.metrics,
                    extra_labels={"shard": str(shard)},
                )
                rollup.tracer.spans.extend(result.observability.tracer.spans)

        num_windows = min(len(r.window_answers) for r in results)
        merged = [
            merge_window_answers(
                [r.window_answers[w] for r in results], self.query.aggregator
            )
            for w in range(num_windows)
        ]
        tenant_shards = self._tenant_shards(merged, table, num_batches)
        if rollup is not None:
            rollup.flush()
        return ShardedRunResult(
            shard_results=tuple(results),
            window_answers=merged,
            router_name=self.router.name,
            num_shards=self.num_shards,
            table=table,
            tenant_shards=tenant_shards,
            observability=rollup,
        )

    @staticmethod
    def _tenant_shards(
        merged: Sequence[Mapping[Hashable, Any]],
        table: RoutingTable,
        num_batches: int,
    ) -> dict[Hashable, tuple[int, ...]]:
        """Every shard each observed tenant touched during the run."""
        tenants = sorted(
            {k[0] for w in merged for k in w}, key=lambda t: str(t)
        )
        return {
            t: tuple(
                sorted({table.shard_for(t, b) for b in range(num_batches)})
            )
            for t in tenants
        }
