"""Extension: batch resizing (Das et al.) vs Prompt's elasticity.

The paper's Section 1 argues that resizing the batch interval restores
stability at the price of delayed results, while Prompt holds the
interval (and therefore latency) by adjusting parallelism.  This bench
runs the same fixed-cost-heavy overload through three configurations
and reports stability and latency side by side.
"""

from __future__ import annotations

from repro.bench import format_table
from repro.core.config import ElasticityConfig
from repro.engine.cluster import ClusterConfig
from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.engine.tasks import TaskCostModel
from repro.extensions.batch_sizing import BatchSizingConfig
from repro.partitioners import make_partitioner
from repro.queries import wordcount_query
from repro.workloads.arrival import ConstantRate
from repro.workloads.synd import synd_source

RATE = 3_000.0
BATCHES = 24
# processing(T) ~ 0.4 + 0.7*T at 4+4 tasks: a 1 s interval is overloaded
# (load 1.1).  Resizing amortizes the 0.4 s of fixed stage costs over a
# longer interval (stable near T=4); elasticity instead parallelizes the
# per-tuple share away and stays at T=1.
COST = TaskCostModel(map_fixed=0.2, reduce_fixed=0.2, map_per_tuple=9.3e-4)


def _run(*, batch_sizing=None, elasticity=None, cores=8):
    config = EngineConfig(
        batch_interval=1.0,
        num_blocks=4,
        num_reducers=4,
        cluster=ClusterConfig(num_nodes=cores // 4, cores_per_node=4),
        cost_model=COST,
        batch_sizing=batch_sizing,
        elasticity=elasticity,
        track_outputs=False,
    )
    engine = MicroBatchEngine(make_partitioner("prompt"), wordcount_query(), config)
    source = synd_source(0.8, num_keys=500, arrival=ConstantRate(RATE), seed=3)
    return engine.run(source, BATCHES)


def test_ext_batch_sizing_vs_elasticity(record_experiment):
    def run():
        fixed = _run()
        sized = _run(
            batch_sizing=BatchSizingConfig(
                target_ratio=0.8, min_interval=0.5, max_interval=8.0
            )
        )
        elastic = _run(
            elasticity=ElasticityConfig(
                threshold=0.9, step=0.3, window=2, grace=1,
                max_map_tasks=16, max_reduce_tasks=16,
            ),
            cores=32,
        )
        rows = []
        for label, result in (
            ("fixed interval", fixed),
            ("batch resizing (Das et al.)", sized),
            ("Prompt elasticity (Alg 4)", elastic),
        ):
            tail = result.stats.records[-6:]
            rows.append(
                {
                    "Strategy": label,
                    "FinalInterval": tail[-1].batch_interval,
                    "FinalTasks": f"{tail[-1].map_tasks}+{tail[-1].reduce_tasks}",
                    "TailLoad": sum(r.load for r in tail) / len(tail),
                    "TailLatency": sum(r.latency for r in tail) / len(tail),
                    "MaxQueueDelay": result.stats.max_queue_delay(),
                }
            )
        return rows

    rows = run()
    record_experiment(
        "ext_batch_sizing",
        format_table(rows, title="Extension: stabilization strategies under overload"),
        rows,
    )
    fixed, sized, elastic = rows
    # fixed interval diverges (queueing), the other two settle
    assert fixed["MaxQueueDelay"] > sized["MaxQueueDelay"]
    assert fixed["MaxQueueDelay"] > elastic["MaxQueueDelay"]
    assert sized["TailLoad"] <= 1.0
    assert elastic["TailLoad"] <= 1.0
    # the paper's point: resizing pays with latency, elasticity does not
    assert sized["TailLatency"] > 1.5 * elastic["TailLatency"]
    assert sized["FinalInterval"] > 1.0
    assert elastic["FinalInterval"] == 1.0