"""Cross-feature engine runs: controllers composed, all techniques."""

from __future__ import annotations

import pytest

from repro.core.config import EarlyReleaseConfig, ElasticityConfig
from repro.engine.cluster import ClusterConfig
from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.engine.lateness import LatenessConfig
from repro.engine.tasks import TaskCostModel
from repro.extensions.batch_sizing import BatchSizingConfig
from repro.partitioners import PARTITIONER_NAMES, make_partitioner
from repro.queries import wordcount_query
from repro.workloads import ConstantRate, DelayedSource, synd_source


def _source(rate=1_500.0, seed=5):
    return synd_source(0.8, num_keys=300, arrival=ConstantRate(rate), seed=seed)


def test_every_registered_technique_runs_end_to_end():
    """Smoke: all registry names (incl. ablation variants) drive the engine."""
    config = EngineConfig(
        batch_interval=0.5, num_blocks=3, num_reducers=3, track_outputs=True
    )
    answers = {}
    for name in PARTITIONER_NAMES:
        engine = MicroBatchEngine(
            make_partitioner(name),
            wordcount_query(window_length=1.0),
            config,
        )
        result = engine.run(_source(rate=800), 3)
        assert len(result.stats.records) == 3, name
        answers[name] = result.window_answers[-1]
    # techniques that cut at the heartbeat all agree exactly
    heartbeat_cut = [n for n in PARTITIONER_NAMES if not n.startswith("prompt")]
    reference = answers[heartbeat_cut[0]]
    for name in heartbeat_cut[1:]:
        assert answers[name] == reference, name
    # accumulator techniques agree among themselves (same cutoff framing)
    prompt_like = [n for n in PARTITIONER_NAMES if n.startswith("prompt")]
    for name in prompt_like[1:]:
        assert answers[name] == answers["prompt"], name


def test_elasticity_and_batch_sizing_compose():
    """Both controllers active: resizing + task scaling cooperate."""
    config = EngineConfig(
        batch_interval=1.0,
        num_blocks=2,
        num_reducers=2,
        cluster=ClusterConfig(num_nodes=8, cores_per_node=4),
        cost_model=TaskCostModel(map_fixed=0.1, reduce_fixed=0.1, map_per_tuple=6e-4),
        elasticity=ElasticityConfig(
            threshold=0.9, step=0.3, window=2, grace=1,
            max_map_tasks=16, max_reduce_tasks=16,
        ),
        batch_sizing=BatchSizingConfig(
            target_ratio=0.8, min_interval=0.5, max_interval=4.0
        ),
        track_outputs=False,
    )
    engine = MicroBatchEngine(make_partitioner("prompt"), wordcount_query(), config)
    result = engine.run(_source(rate=3_000.0), 16)
    tail = result.stats.records[-4:]
    # jointly stabilized: load within bounds at the end
    assert all(r.load <= 1.05 for r in tail)
    # and at least one of the two dials moved
    moved_interval = any(
        abs(r.batch_interval - 1.0) > 1e-9 for r in result.stats.records
    )
    moved_tasks = any(r.map_tasks != 2 for r in result.stats.records)
    assert moved_interval or moved_tasks


def test_lateness_with_prompt_early_release():
    """Cutoff framing and the delay contract interact coherently."""
    config = EngineConfig(
        batch_interval=0.5,
        num_blocks=4,
        num_reducers=4,
        early_release=EarlyReleaseConfig(slack_fraction=0.05),
        lateness=LatenessConfig(max_delay=0.2),
        track_outputs=False,
    )
    engine = MicroBatchEngine(make_partitioner("prompt"), wordcount_query(), config)
    source = DelayedSource(
        _source(rate=2_000.0), max_delay=0.3, delayed_fraction=0.3, seed=9
    )
    result = engine.run(source, 8)
    assert result.lateness is not None
    assert result.lateness.total > 0
    # nothing processed violated the contract by construction
    assert result.stats.total_tuples == (
        result.lateness.on_time + result.lateness.late_accepted
    )


def test_topology_with_elasticity():
    """Remote-fragment pricing keeps working as task counts change."""
    config = EngineConfig(
        batch_interval=1.0,
        num_blocks=2,
        num_reducers=2,
        cluster=ClusterConfig(num_nodes=4, cores_per_node=4),
        cost_model=TaskCostModel(
            map_per_tuple=4e-4, network_per_remote_fragment=1e-4
        ),
        elasticity=ElasticityConfig(
            threshold=0.9, step=0.3, window=2, grace=1,
            max_map_tasks=8, max_reduce_tasks=8,
        ),
        track_outputs=False,
    )
    engine = MicroBatchEngine(make_partitioner("prompt"), wordcount_query(), config)
    result = engine.run(_source(rate=4_000.0), 12)
    assert result.stats.records[-1].map_tasks >= 2
