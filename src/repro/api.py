"""The public entry point: :func:`repro.run`, :class:`RunSpec`, topologies.

v1 makes the *shape* of a run a first-class concept.  A
:class:`Topology` says how many engines execute the stream:

- :class:`SingleEngine` (the default) — one
  :class:`~repro.engine.engine.MicroBatchEngine`, exactly the v0
  behaviour;
- :class:`Sharded` — a deterministic router fans a multi-tenant stream
  across N independent engines
  (:class:`~repro.engine.sharding.ShardedEngine`).

Both shapes share one entry point::

    import repro
    from repro.queries import wordcount_query
    from repro.workloads import MultiTenantSource, tweets_source

    # single engine (v1: engine config travels as a typed object)
    result = repro.run(
        tweets_source(rate=5_000.0, seed=42),
        wordcount_query(window_length=10.0),
        engine=repro.EngineConfig(executor="parallel"),
    )

    # sharded: four engines behind a consistent-hash router
    result = repro.run(
        union,                       # a MultiTenantSource
        wordcount_query(window_length=10.0),
        topology=repro.Sharded(shards=4, router="consistent-hash"),
    )

:class:`RunSpec` is the typed builder behind :func:`run` — construct
one directly (or via ``with_*`` methods) to stage, inspect, or reuse a
fully-specified run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Union

from .engine import EngineConfig, MicroBatchEngine, RunResult
from .engine.faults import TaskFaultInjector
from .engine.sharding import Rebalance, ShardedEngine, ShardedRunResult
from .partitioners import make_partitioner
from .partitioners.base import Partitioner
from .queries.base import Query
from .workloads.source import StreamSource

__all__ = ["RunSpec", "Sharded", "SingleEngine", "Topology", "run"]


class Topology:
    """Base class for run shapes: how many engines execute the stream.

    Not the cluster-placement
    :class:`~repro.engine.topology.ClusterTopology` — a ``Topology``
    describes the driver tier (one engine vs. a sharded fleet), not
    where blocks land inside one engine's cluster.
    """

    __slots__ = ()


@dataclass(frozen=True)
class SingleEngine(Topology):
    """One micro-batch engine owns the whole stream (the v0 shape)."""


@dataclass(frozen=True)
class Sharded(Topology):
    """N independent engines behind a deterministic shard router.

    The source must be tenant-tagged (wrap per-tenant streams in
    :class:`~repro.workloads.tenants.MultiTenantSource`); ``router`` is
    any of :data:`~repro.engine.sharding.ROUTER_NAMES`.  ``rebalances``
    pre-declares tenant migrations (see
    :class:`~repro.engine.sharding.Rebalance`) and ``shard_faults``
    carries shard-scoped
    :class:`~repro.engine.faults.TaskFaultInjector` profiles.
    """

    shards: int = 4
    router: str = "hash"
    rebalances: tuple[Rebalance, ...] = ()
    shard_faults: tuple[TaskFaultInjector, ...] = ()

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")


@dataclass(frozen=True)
class RunSpec:
    """A fully-specified run: source, query, technique, shape, config.

    The typed replacement for v0's ``**engine_config`` grab-bag.  Frozen
    — the ``with_*`` builders return updated copies, so a spec can be
    staged, varied, and reused::

        spec = repro.RunSpec(source, query).with_engine(executor="parallel")
        baseline = spec.run()
        sharded = spec.with_topology(repro.Sharded(shards=4)).run()
    """

    source: StreamSource
    query: Query
    partitioner: str | Partitioner = "prompt"
    num_batches: int = 10
    topology: Topology = field(default_factory=SingleEngine)
    engine: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        if self.num_batches < 1:
            raise ValueError(f"num_batches must be >= 1, got {self.num_batches}")
        if not isinstance(self.topology, Topology):
            raise TypeError(
                f"topology must be a Topology (SingleEngine or Sharded), "
                f"got {self.topology!r}"
            )

    # -- builders --------------------------------------------------------
    def with_engine(self, **fields: Any) -> "RunSpec":
        """A copy with engine-config fields updated over the current ones."""
        return replace(self, engine=replace(self.engine, **fields))

    def with_topology(self, topology: Topology) -> "RunSpec":
        return replace(self, topology=topology)

    def with_partitioner(self, partitioner: str | Partitioner) -> "RunSpec":
        return replace(self, partitioner=partitioner)

    def with_batches(self, num_batches: int) -> "RunSpec":
        return replace(self, num_batches=num_batches)

    # -- execution -------------------------------------------------------
    def run(self) -> Union[RunResult, ShardedRunResult]:
        """Execute the spec; the topology decides the result type."""
        if isinstance(self.topology, Sharded):
            sharded = ShardedEngine(
                self.partitioner,
                self.query,
                self.engine,
                num_shards=self.topology.shards,
                router=self.topology.router,
                rebalances=self.topology.rebalances,
                shard_faults=self.topology.shard_faults,
            )
            return sharded.run(self.source, num_batches=self.num_batches)
        partitioner = self.partitioner
        if isinstance(partitioner, str):
            partitioner = make_partitioner(partitioner)
        engine = MicroBatchEngine(partitioner, self.query, self.engine)
        return engine.run(self.source, num_batches=self.num_batches)


def run(
    source: StreamSource,
    query: Query,
    partitioner: str | Partitioner = "prompt",
    num_batches: int = 10,
    *,
    topology: Topology | None = None,
    engine: EngineConfig | None = None,
) -> Union[RunResult, ShardedRunResult]:
    """Run ``query`` over ``num_batches`` batch intervals of ``source``.

    ``partitioner`` is a registry name (any of
    :data:`~repro.partitioners.PARTITIONER_NAMES`) or a constructed
    :class:`~repro.partitioners.base.Partitioner`.  ``topology`` selects
    the run shape (:class:`SingleEngine` default, or :class:`Sharded`
    over a multi-tenant source); ``engine`` carries the typed
    :class:`~repro.engine.engine.EngineConfig`.

    Returns a :class:`~repro.engine.engine.RunResult` for single-engine
    runs, a :class:`~repro.engine.sharding.ShardedRunResult` for sharded
    ones; either way the engines (and any worker pools) are torn down
    before returning.
    """
    spec = RunSpec(
        source,
        query,
        partitioner=partitioner,
        num_batches=num_batches,
        topology=topology if topology is not None else SingleEngine(),
        engine=engine if engine is not None else EngineConfig(),
    )
    return spec.run()
