"""The v1 run API: RunSpec builders and topologies.

``tests/test_public_api.py`` freezes *which* names exist; this suite
pins *how* they behave: the typed ``engine=``/``topology=`` paths, the
RunSpec builder semantics, and that engine-config fields are accepted
only through ``engine=EngineConfig(...)``.
"""

from __future__ import annotations

import pytest

import repro
from repro.queries import wordcount_query
from repro.workloads import MultiTenantSource, TenantStream, synd_source


def _source(seed=7):
    return synd_source(1.2, num_keys=40, rate=400.0, seed=seed)


def _union():
    return MultiTenantSource(
        [TenantStream(f"t{i}", _source(seed=20 + i)) for i in range(3)]
    )


def _query():
    return wordcount_query(window_length=1.0)


# ----------------------------------------------------------------------
# v1 typed paths
def test_run_with_typed_engine_config():
    result = repro.run(
        _source(),
        _query(),
        num_batches=3,
        engine=repro.EngineConfig(batch_interval=0.5, num_blocks=2),
    )
    assert isinstance(result, repro.RunResult)
    assert len(result.stats.records) == 3


def test_run_with_sharded_topology():
    result = repro.run(
        _union(),
        _query(),
        num_batches=3,
        topology=repro.Sharded(shards=2),
        engine=repro.EngineConfig(batch_interval=0.5, num_blocks=2),
    )
    assert isinstance(result, repro.ShardedRunResult)
    assert result.num_shards == 2
    assert len(result.window_answers) == 3


def test_default_topology_is_single_engine():
    spec = repro.RunSpec(_source(), _query())
    assert isinstance(spec.topology, repro.SingleEngine)
    assert isinstance(spec.topology, repro.Topology)


def test_runspec_builders_return_updated_copies():
    spec = repro.RunSpec(_source(), _query())
    tuned = (
        spec.with_engine(num_blocks=8)
        .with_partitioner("hash")
        .with_batches(5)
        .with_topology(repro.Sharded(shards=3, router="key-range"))
    )
    # the original is untouched (frozen spec, copy-on-write builders)
    assert spec.engine.num_blocks != 8 or spec.partitioner == "prompt"
    assert spec.num_batches == 10
    assert tuned.engine.num_blocks == 8
    assert tuned.partitioner == "hash"
    assert tuned.num_batches == 5
    assert tuned.topology.shards == 3
    assert tuned.topology.router == "key-range"


def test_runspec_run_dispatches_on_topology():
    engine = repro.EngineConfig(batch_interval=0.5, num_blocks=2)
    single = repro.RunSpec(
        _source(), _query(), num_batches=2, engine=engine
    ).run()
    sharded = repro.RunSpec(
        _union(),
        _query(),
        num_batches=2,
        engine=engine,
        topology=repro.Sharded(shards=2, router="consistent-hash"),
    ).run()
    assert isinstance(single, repro.RunResult)
    assert isinstance(sharded, repro.ShardedRunResult)
    assert sharded.router_name == "consistent-hash"


def test_runspec_validates_inputs():
    with pytest.raises(ValueError, match="num_batches"):
        repro.RunSpec(_source(), _query(), num_batches=0)
    with pytest.raises(TypeError, match="topology"):
        repro.RunSpec(_source(), _query(), topology="sharded")
    with pytest.raises(ValueError, match="shards"):
        repro.Sharded(shards=0)


# ----------------------------------------------------------------------
# engine config travels only as a typed object
def test_loose_engine_kwargs_raise_type_error():
    with pytest.raises(TypeError, match="num_blocks"):
        repro.run(_source(), _query(), num_batches=2, num_blocks=2)


def test_engine_and_loose_kwargs_are_mutually_exclusive():
    with pytest.raises(TypeError, match="num_blocks"):
        repro.run(
            _source(), _query(), engine=repro.EngineConfig(), num_blocks=4
        )


def test_unknown_kwarg_raises_like_engine_config_does():
    with pytest.raises(TypeError):
        repro.run(_source(), _query(), definitely_not_a_field=1)
