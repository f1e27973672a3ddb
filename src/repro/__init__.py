"""repro — reproduction of *Prompt: Dynamic Data-Partitioning for
Distributed Micro-batch Stream Processing Systems* (SIGMOD 2020).

Public API layout:

- :mod:`repro.core` — the paper's contribution: frequency-aware
  buffering (Alg. 1), B-BPFI batch partitioning (Alg. 2), B-BPVC reduce
  allocation (Alg. 3), latency-aware elasticity (Alg. 4), and the
  BSI/BCI/KSR/MPI cost model.
- :mod:`repro.partitioners` — Prompt plus every baseline technique
  (time-based, shuffle, hashing, PK2/PK5, cAM).
- :mod:`repro.engine` — the simulated micro-batch engine substrate
  (receiver, scheduler, tasks, windows, state, faults, back-pressure)
  and the sharded multi-engine topology
  (:mod:`repro.engine.sharding`: router, driver, merge, shard faults).
- :mod:`repro.queries` — the Section 7.1 benchmark queries.
- :mod:`repro.workloads` — dataset generators, arrival processes, and
  the multi-tenant stream wrappers.
- :mod:`repro.bench` — the experiment harness regenerating every table
  and figure of the evaluation.
- :mod:`repro.obs` — optional zero-dependency observability: span
  tracing, a metrics registry, and Chrome-trace/JSONL/Prometheus
  exporters (enable via ``EngineConfig.observability``).

Quickstart::

    import repro
    from repro.queries import wordcount_query
    from repro.workloads import tweets_source

    result = repro.run(
        tweets_source(rate=5_000),
        wordcount_query(window_length=10.0),
        partitioner="prompt",
        num_batches=12,
    )
    print(result.stats.throughput(), result.stats.mean_latency())

Scale out by handing the same call a run shape::

    result = repro.run(
        union,  # a MultiTenantSource over per-tenant streams
        wordcount_query(window_length=10.0),
        topology=repro.Sharded(shards=4, router="consistent-hash"),
    )

The explicit forms — :class:`RunSpec`, or building a partitioner, a
query, and an :class:`EngineConfig` around a :class:`MicroBatchEngine`
/ :class:`ShardedEngine` — remain available for anything the one-shot
entry cannot express (failure injection, partitioner reuse, sweeps).

The names exported here — ``__all__`` below — are the frozen v1 public
surface; ``docs/api.md`` documents each one and a doc-sync test keeps
the two lists identical.  Symbols deeper in subpackages remain
importable but carry no stability promise.
"""

from .api import RunSpec, Sharded, SingleEngine, Topology, run
from .core import (
    AccumulatorConfig,
    AutoScaler,
    BatchInfo,
    ElasticityConfig,
    MicroBatchAccumulator,
    MPIWeights,
    PartitionedBatch,
    PromptBatchPartitioner,
    PromptConfig,
    StreamTuple,
    evaluate_partition,
)
from .engine import (
    EngineConfig,
    ExecutorKind,
    MicroBatchEngine,
    Rebalance,
    RunResult,
    ShardRouter,
    ShardedEngine,
    ShardedRunResult,
    make_router,
)
from .obs import ObservabilityConfig, RunObservability
from .partitioners import make_partitioner
from .queries import Query, WindowSpec
from .workloads import MultiTenantSource, TenantStream

__version__ = "1.1.0"

__all__ = [
    "AccumulatorConfig",
    "AutoScaler",
    "BatchInfo",
    "ElasticityConfig",
    "EngineConfig",
    "ExecutorKind",
    "MPIWeights",
    "MicroBatchAccumulator",
    "MicroBatchEngine",
    "MultiTenantSource",
    "ObservabilityConfig",
    "PartitionedBatch",
    "PromptBatchPartitioner",
    "PromptConfig",
    "Query",
    "Rebalance",
    "RunObservability",
    "RunResult",
    "RunSpec",
    "ShardRouter",
    "Sharded",
    "ShardedEngine",
    "ShardedRunResult",
    "SingleEngine",
    "StreamTuple",
    "TenantStream",
    "Topology",
    "WindowSpec",
    "__version__",
    "evaluate_partition",
    "make_partitioner",
    "make_router",
    "run",
]
