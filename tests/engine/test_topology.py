"""Topology: placement, locality, and the network shuffle term."""

from __future__ import annotations

import pytest

from repro.core.batch import BatchInfo
from repro.engine.cluster import ClusterConfig
from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.engine.tasks import TaskCostModel, execute_batch_tasks
from repro.engine.topology import ClusterTopology
from repro.partitioners import ShufflePartitioner, make_partitioner
from repro.queries import wordcount_query
from repro.queries.base import Query, SumAggregator
from repro.workloads.arrival import ConstantRate
from repro.workloads.synd import synd_source

from ..conftest import make_tuples, zipfish_freqs

INFO = BatchInfo(0, 0.0, 1.0)


def test_round_robin_placement():
    topo = ClusterTopology(ClusterConfig(num_nodes=4, cores_per_node=4))
    assert [topo.node_of_block(i) for i in range(6)] == [0, 1, 2, 3, 0, 1]
    assert topo.node_of_reducer(5) == 1
    assert topo.is_local(0, 4)       # both on node 0
    assert not topo.is_local(0, 1)


def test_placement_validation():
    topo = ClusterTopology(ClusterConfig(num_nodes=2, cores_per_node=2))
    with pytest.raises(ValueError):
        topo.node_of_block(-1)
    with pytest.raises(ValueError):
        topo.node_of_reducer(-1)
    with pytest.raises(ValueError):
        topo.remote_fraction(0, 4)


def test_remote_fraction_approaches_all_to_all_floor():
    topo = ClusterTopology(ClusterConfig(num_nodes=4, cores_per_node=4))
    assert topo.remote_fraction(16, 16) == pytest.approx(0.75)
    single = ClusterTopology(ClusterConfig(num_nodes=1, cores_per_node=4))
    assert single.remote_fraction(8, 8) == 0.0


def test_network_term_counts_remote_fragments():
    tuples = make_tuples(zipfish_freqs(30, 600), shuffle_seed=2)
    part = ShufflePartitioner()
    batch = part.partition(tuples, 4, INFO)
    topo = ClusterTopology(ClusterConfig(num_nodes=2, cores_per_node=2))
    query = Query(name="sum", aggregator=SumAggregator(), map_fn=lambda k, v: 1)
    base = execute_batch_tasks(batch, query, part, 4, TaskCostModel())
    priced = execute_batch_tasks(
        batch,
        query,
        part,
        4,
        TaskCostModel(network_per_remote_fragment=1e-3),
        topology=topo,
    )
    total_fragments = sum(r.fragment_count for r in priced.reduce_results)
    total_remote = sum(r.remote_fragments for r in priced.reduce_results)
    assert 0 < total_remote < total_fragments
    # the network term strictly lengthens affected reduce tasks
    for b, p in zip(base.reduce_results, priced.reduce_results):
        assert p.duration == pytest.approx(b.duration + 1e-3 * p.remote_fragments)


def test_without_topology_no_remote_fragments():
    tuples = make_tuples({"a": 10, "b": 5}, shuffle_seed=1)
    part = ShufflePartitioner()
    batch = part.partition(tuples, 4, INFO)
    query = Query(name="sum", aggregator=SumAggregator(), map_fn=lambda k, v: 1)
    execution = execute_batch_tasks(batch, query, part, 4, TaskCostModel())
    assert all(r.remote_fragments == 0 for r in execution.reduce_results)


def test_engine_topology_flag_slows_scattering_techniques_more():
    """With network costs on, shuffle (many fragments) pays more than hash."""
    cost = TaskCostModel(network_per_remote_fragment=2e-4)
    config = EngineConfig(
        batch_interval=1.0,
        num_blocks=4,
        num_reducers=4,
        cluster=ClusterConfig(num_nodes=4, cores_per_node=2),
        cost_model=cost,
        track_outputs=False,
    )

    def mean_processing(technique):
        engine = MicroBatchEngine(
            make_partitioner(technique), wordcount_query(), config
        )
        source = synd_source(0.6, num_keys=400, arrival=ConstantRate(2_000.0), seed=7)
        result = engine.run(source, 4)
        records = result.stats.records
        return sum(r.processing_time for r in records) / len(records)

    def run_without(technique):
        cfg2 = EngineConfig(
            batch_interval=1.0, num_blocks=4, num_reducers=4,
            cluster=ClusterConfig(num_nodes=4, cores_per_node=2),
            cost_model=TaskCostModel(), track_outputs=False,  # no price, no topology
        )
        engine = MicroBatchEngine(make_partitioner(technique), wordcount_query(), cfg2)
        source = synd_source(0.6, num_keys=400, arrival=ConstantRate(2_000.0), seed=7)
        result = engine.run(source, 4)
        records = result.stats.records
        return sum(r.processing_time for r in records) / len(records)

    shuffle_delta = mean_processing("shuffle") - run_without("shuffle")
    hash_delta = mean_processing("hash") - run_without("hash")
    # Hashing is co-partitioned under round-robin placement (the same
    # hash drives block and bucket, so block i feeds reducer i on the
    # same node): zero remote fetches.  Shuffle scatters and pays.
    assert shuffle_delta > hash_delta >= 0
