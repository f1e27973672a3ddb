"""A finished run is freed by reference counting alone.

The engine's state (``RunStats``, the ``StateStore``, window answers,
scheduled jobs, the partitioner's ``last_batch``) must not sit in a
reference cycle: a cycle keeps it alive until a generation-2 collection,
so peak memory then depends on *when* the collector happens to fire.
With the collector disabled, dropping the result must free the state at
once and leave ``gc.collect()`` nothing to find.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.engine.sharding import ShardedEngine
from repro.partitioners import make_partitioner
from repro.queries import wordcount_query
from repro.workloads import MultiTenantSource, TenantStream, synd_source
from repro.workloads.arrival import ConstantRate


def _single_run():
    engine = MicroBatchEngine(
        make_partitioner("prompt"),
        wordcount_query(window_length=2.0),
        EngineConfig(num_blocks=4, num_reducers=4),
    )
    source = synd_source(1.0, num_keys=200, arrival=ConstantRate(2000.0), seed=0)
    result = engine.run(source, 4)
    return result, [result.state_store]


def _sharded_run():
    union = MultiTenantSource(
        [
            TenantStream(name, synd_source(1.2, num_keys=60, rate=300.0, seed=seed))
            for name, seed in (("alpha", 1), ("bravo", 2))
        ]
    )
    engine = ShardedEngine(
        "prompt",
        wordcount_query(window_length=1.5),
        EngineConfig(batch_interval=0.5, num_blocks=3, num_reducers=3),
        num_shards=2,
    )
    result = engine.run(union, 4)
    return result, [r.state_store for r in result.shard_results]


@pytest.mark.parametrize("run", [_single_run, _sharded_run], ids=["single", "sharded"])
def test_dropped_run_leaves_no_cyclic_garbage(run):
    gc.collect()
    gc.disable()
    try:
        result, stores = run()
        refs = [weakref.ref(store) for store in stores]
        del result, stores
        assert all(ref() is None for ref in refs), "the state store outlived its run"
        assert gc.collect() == 0
    finally:
        gc.enable()
