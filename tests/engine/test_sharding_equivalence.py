"""Differential harness: sharded runs are byte-identical per tenant.

The sharded topology's whole contract is that *where* a tenant's tuples
are processed never leaks into *what* the system answers.  Every case
runs the multi-tenant union stream through a
:class:`~repro.engine.sharding.ShardedEngine` and compares, tenant by
tenant and window by window, against N independent single-engine runs
over each tenant's own tagged stream:

- byte-identical per-tenant window answers (pickled bytes of the
  canonically-ordered mappings, so key order and accumulator types
  match exactly, not just dict equality),
- coverage across router strategies × executors,
- a shard killed mid-run (worker-pool poison, per-shard blast radius),
- a tenant rebalanced between shards at a batch boundary, with the
  window that spans the handoff reconstructed exactly.

The suite also pins the merge-stage invariants: merged answers come
out in canonical (tenant, key) order and equal the union of the
per-tenant slices.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.engine.sharding import (
    ShardedEngine,
    canonical_order,
    crash_shard,
    kill_shard,
    tenant_slice,
)
from repro.partitioners import make_partitioner
from repro.queries import wordcount_query
from repro.workloads import MultiTenantSource, TenantStream, synd_source

NUM_BATCHES = 6
NUM_TENANTS = 4
INTERVAL = 0.5

#: tenants with different skews and rates, so shards see unequal work
TENANT_SPECS = [
    ("alpha", 1.4, 320.0, 101),
    ("bravo", 0.8, 260.0, 102),
    ("charlie", 1.6, 300.0, 103),
    ("delta", 1.1, 240.0, 104),
]


def _tenant_source(exponent: float, rate: float, seed: int):
    return synd_source(exponent, num_keys=60, rate=rate, seed=seed)


def _union() -> MultiTenantSource:
    return MultiTenantSource(
        [
            TenantStream(name, _tenant_source(z, rate, seed))
            for name, z, rate, seed in TENANT_SPECS
        ]
    )


def _query():
    return wordcount_query(window_length=1.5)  # 3 batches per window


def _config(**overrides) -> EngineConfig:
    base = dict(batch_interval=INTERVAL, num_blocks=4, num_reducers=4)
    base.update(overrides)
    return EngineConfig(**base)


def _reference_answers(config: EngineConfig) -> dict[str, list[bytes]]:
    """Per-tenant single-engine runs: tenant -> canonical pickled windows."""
    from repro.workloads import TenantTaggedSource

    out: dict[str, list[bytes]] = {}
    for name, z, rate, seed in TENANT_SPECS:
        source = TenantTaggedSource(name, _tenant_source(z, rate, seed))
        engine = MicroBatchEngine(make_partitioner("prompt"), _query(), config)
        result = engine.run(source, num_batches=NUM_BATCHES)
        out[name] = [
            pickle.dumps(canonical_order(w)) for w in result.window_answers
        ]
    return out


def _assert_matches_reference(sharded, config: EngineConfig) -> None:
    reference = _reference_answers(config)
    assert len(sharded.window_answers) == NUM_BATCHES
    for name, _, _, _ in TENANT_SPECS:
        mine = [pickle.dumps(w) for w in sharded.tenant_answers(name)]
        assert mine == reference[name], f"tenant {name} diverged"


# ----------------------------------------------------------------------
# router strategies x partitioners (serial)
@pytest.mark.parametrize("router", ["hash", "consistent-hash", "key-range"])
@pytest.mark.parametrize("partitioner", ["prompt", "hash"])
def test_sharded_equals_per_tenant_runs(router, partitioner):
    config = _config()
    sharded = ShardedEngine(
        partitioner, _query(), config, num_shards=2, router=router
    ).run(_union(), num_batches=NUM_BATCHES)
    # the reference uses the same partitioner technique
    reference: dict[str, list[bytes]] = {}
    from repro.workloads import TenantTaggedSource

    for name, z, rate, seed in TENANT_SPECS:
        source = TenantTaggedSource(name, _tenant_source(z, rate, seed))
        engine = MicroBatchEngine(make_partitioner(partitioner), _query(), config)
        result = engine.run(source, num_batches=NUM_BATCHES)
        reference[name] = [
            pickle.dumps(canonical_order(w)) for w in result.window_answers
        ]
    for name, _, _, _ in TENANT_SPECS:
        mine = [pickle.dumps(w) for w in sharded.tenant_answers(name)]
        assert mine == reference[name], f"tenant {name} diverged under {router}"


@pytest.mark.parametrize("num_shards", [1, 3])
def test_shard_count_does_not_change_answers(num_shards):
    config = _config()
    sharded = ShardedEngine(
        "prompt", _query(), config, num_shards=num_shards
    ).run(_union(), num_batches=NUM_BATCHES)
    _assert_matches_reference(sharded, config)


# ----------------------------------------------------------------------
# executors
def test_parallel_executor_shards_match_reference():
    config = _config(executor="parallel", executor_workers=2)
    sharded = ShardedEngine(
        "prompt", _query(), config, num_shards=2, router="consistent-hash"
    ).run(_union(), num_batches=NUM_BATCHES)
    _assert_matches_reference(sharded, config)
    assert all(r.backend_name == "parallel" for r in sharded.shard_results)


# ----------------------------------------------------------------------
# faults: shard killed mid-run, blast radius one shard
def test_shard_killed_mid_run_still_byte_identical():
    config = _config(executor="parallel", executor_workers=2)
    sharded = ShardedEngine(
        "prompt",
        _query(),
        config,
        num_shards=2,
        router="hash",
        shard_faults=[kill_shard(0, batch_index=2)],
    ).run(_union(), num_batches=NUM_BATCHES)
    _assert_matches_reference(sharded, config)
    # the poison killed shard 0's pool and only shard 0's pool
    resurrections = [
        r.executor_pool_resurrections for r in sharded.shard_results
    ]
    assert resurrections[0] >= 1, "shard 0's pool was never killed"
    assert resurrections[1] == 0, "blast radius leaked to shard 1"


def test_crash_fault_retries_in_place_with_shard_blast_radius():
    # task-attempt faults are a parallel-backend mechanism (the serial
    # executor is the clean reference and never consults the fault
    # table), so the crash profile is exercised under the pool
    config = _config(executor="parallel", executor_workers=2)
    sharded = ShardedEngine(
        "prompt",
        _query(),
        config,
        num_shards=2,
        shard_faults=[crash_shard(1, batch_index=1, times=1)],
    ).run(_union(), num_batches=NUM_BATCHES)
    _assert_matches_reference(sharded, config)
    retries = [r.executor_task_retries for r in sharded.shard_results]
    assert retries[1] >= 1 and retries[0] == 0


def test_shard_faults_must_be_scoped():
    from repro.engine.faults import TaskFaultInjector

    with pytest.raises(ValueError, match="shard-scoped"):
        ShardedEngine(
            "prompt",
            _query(),
            _config(),
            num_shards=2,
            shard_faults=[TaskFaultInjector().crash(0, "map", 0)],
        )


# ----------------------------------------------------------------------
# rebalance: a hot tenant migrates at a batch boundary
@pytest.mark.parametrize("router", ["hash", "consistent-hash"])
def test_rebalanced_tenant_still_byte_identical(router):
    config = _config()
    engine = ShardedEngine(
        "prompt", _query(), config, num_shards=2, router=router
    )
    hot = "charlie"
    home = engine.router.route(hot)
    away = (home + 1) % 2
    # migrate mid-window: window_length=1.5 spans batches {1,2,3}, the
    # handoff at batch 3 splits window 3 across both shards
    engine.rebalance(hot, away, at_batch=3)
    sharded = engine.run(_union(), num_batches=NUM_BATCHES)
    _assert_matches_reference(sharded, config)
    assert sharded.tenant_shards[hot] == tuple(sorted({home, away}))


def test_rebalance_composes_with_shard_kill():
    config = _config(executor="parallel", executor_workers=2)
    engine = ShardedEngine(
        "prompt",
        _query(),
        config,
        num_shards=2,
        shard_faults=[kill_shard(1, batch_index=3)],
    )
    hot = "alpha"
    home = engine.router.route(hot)
    engine.rebalance(hot, (home + 1) % 2, at_batch=2)
    sharded = engine.run(_union(), num_batches=NUM_BATCHES)
    _assert_matches_reference(sharded, config)


# ----------------------------------------------------------------------
# merge-stage invariants
def test_merged_answers_are_canonically_ordered():
    sharded = ShardedEngine(
        "prompt", _query(), _config(), num_shards=2
    ).run(_union(), num_batches=NUM_BATCHES)
    for window in sharded.window_answers:
        assert pickle.dumps(window) == pickle.dumps(canonical_order(window))
        # merged == union of tenant slices, nothing lost or invented
        rebuilt: dict = {}
        for name, _, _, _ in TENANT_SPECS:
            rebuilt.update(tenant_slice(window, name))
        assert canonical_order(rebuilt) == window


def test_sharded_config_guards():
    from repro.extensions import BatchSizingConfig

    with pytest.raises(ValueError, match="batch_sizing"):
        ShardedEngine(
            "prompt",
            _query(),
            _config(batch_sizing=BatchSizingConfig()),
            num_shards=2,
        )
