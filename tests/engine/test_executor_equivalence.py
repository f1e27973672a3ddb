"""Differential harness: the parallel backend is bit-identical to serial.

The executor layer's whole contract is that *how* tasks are dispatched
never leaks into *what* the engine computes.  Every case here runs the
same seeded workload twice — once under :class:`SerialExecutor`, once
under :class:`ParallelExecutor` — and requires

- byte-identical windowed answers (compared as pickled bytes, so key
  order and value types match exactly, not just dict equality),
- equal ``RunStats`` records (wall-clock/backend fields are excluded
  from ``BatchRecord`` equality by design — everything else must match
  field for field),
- identical scaling decisions, backpressure verdicts and recoveries.

Coverage crosses three workloads (Zipf-skew SynD at two exponents,
the tweets trace) with engine option combinations: elasticity on/off,
early release slack, backpressure thresholds, topology-priced
shuffles, and both the accumulator (prompt) and heartbeat-cut (hash)
partitioning paths.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import EarlyReleaseConfig, ElasticityConfig
from repro.engine.backpressure import BackpressureConfig
from repro.engine.cluster import ClusterConfig
from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.engine.tasks import TaskCostModel
from repro.obs import ObservabilityConfig
from repro.partitioners import make_partitioner
from repro.queries import wordcount_query
from repro.workloads import ConstantRate, synd_source, tweets_source

NUM_BATCHES = 5

WORKLOADS = {
    "synd-mild": lambda: synd_source(
        0.6, num_keys=400, arrival=ConstantRate(1_200.0), seed=5
    ),
    "synd-skewed": lambda: synd_source(
        1.6, num_keys=400, arrival=ConstantRate(1_200.0), seed=7
    ),
    "tweets": lambda: tweets_source(rate=1_000.0, seed=42),
}

CONFIGS = {
    "base": dict(),
    "elastic": dict(
        cluster=ClusterConfig(num_nodes=4, cores_per_node=4),
        cost_model=TaskCostModel(
            map_fixed=0.05, reduce_fixed=0.05, map_per_tuple=4e-4
        ),
        elasticity=ElasticityConfig(
            threshold=0.9, step=0.3, window=2, grace=1,
            max_map_tasks=8, max_reduce_tasks=8,
        ),
    ),
    "release-backpressure": dict(
        early_release=EarlyReleaseConfig(slack_fraction=0.05),
        backpressure=BackpressureConfig(
            max_queue_intervals=0.5, max_mean_load=0.9, warmup_batches=1
        ),
        cost_model=TaskCostModel(map_fixed=0.02, map_per_tuple=2e-4),
    ),
    "topology": dict(
        cluster=ClusterConfig(num_nodes=4, cores_per_node=2),
        cost_model=TaskCostModel(
            map_per_tuple=3e-4, network_per_remote_fragment=1e-4
        ),
    ),
}


def _run(
    workload: str,
    config_name: str,
    partitioner: str,
    executor: str,
    observability: ObservabilityConfig | None = None,
):
    cfg = EngineConfig(
        batch_interval=1.0,
        num_blocks=4,
        num_reducers=4,
        executor=executor,
        executor_workers=2,
        run_seed=13,
        observability=observability,
        **CONFIGS[config_name],
    )
    engine = MicroBatchEngine(
        make_partitioner(partitioner), wordcount_query(window_length=3.0), cfg
    )
    return engine.run(WORKLOADS[workload](), NUM_BATCHES)


def _assert_equivalent(serial, parallel):
    # answers: byte-identical per window, not merely ==.  (Windows are
    # pickled one at a time: pickling the whole list also encodes which
    # key objects are *shared* across windows via memo back-references,
    # and serial runs reuse accumulator key objects where parallel runs
    # get fresh ones from worker round-trips — identical content,
    # different object graph.)
    assert len(serial.window_answers) == len(parallel.window_answers)
    for s_window, p_window in zip(serial.window_answers, parallel.window_answers):
        assert pickle.dumps(s_window) == pickle.dumps(p_window)
    # stats: record-for-record equality (wall-clock fields excluded by design)
    assert serial.stats.records == parallel.stats.records
    assert serial.stats.batch_interval == parallel.stats.batch_interval
    # control-loop outcomes
    assert serial.scaling_history == parallel.scaling_history
    assert serial.backpressure.triggered == parallel.backpressure.triggered
    assert serial.stable == parallel.stable
    assert len(serial.recoveries) == len(parallel.recoveries)
    # state stores retained the same batches with the same outputs
    assert len(serial.state_store) == len(parallel.state_store)
    for record in serial.stats.records:
        if record.index in serial.state_store:
            assert dict(serial.state_store.get(record.index).output) == dict(
                parallel.state_store.get(record.index).output
            )
    # the parallel run really ran parallel, without degrading
    assert parallel.backend_name == "parallel"
    assert parallel.executor_fallbacks == 0
    assert parallel.stats.backends_used() == ("parallel",)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_parallel_matches_serial_prompt(workload, config_name):
    """Accumulator path (prompt partitioner) across all option sets."""
    serial = _run(workload, config_name, "prompt", "serial")
    parallel = _run(workload, config_name, "prompt", "parallel")
    _assert_equivalent(serial, parallel)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_parallel_matches_serial_hash(workload):
    """Heartbeat-cut path (hash partitioner, default reduce allocation)."""
    serial = _run(workload, "base", "hash", "serial")
    parallel = _run(workload, "base", "hash", "parallel")
    _assert_equivalent(serial, parallel)


FEEDBACK_PARTITIONERS = ("d-choices", "w-choices", "fang")


@pytest.mark.parametrize("partitioner", FEEDBACK_PARTITIONERS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_parallel_matches_serial_feedback_consumers(workload, partitioner):
    """The load-feedback loop closes over simulated durations, which are
    backend-invariant by contract — so the adaptive techniques must be
    bit-identical across executors too."""
    serial = _run(workload, "base", partitioner, "serial")
    parallel = _run(workload, "base", partitioner, "parallel")
    _assert_equivalent(serial, parallel)


def test_parallel_matches_serial_fang_under_elasticity():
    """Task counts change mid-run: fang's routing table must resolve the
    resize identically on both backends."""
    serial = _run("synd-skewed", "elastic", "fang", "serial")
    parallel = _run("synd-skewed", "elastic", "fang", "parallel")
    _assert_equivalent(serial, parallel)


def test_parallel_matches_serial_across_seeds():
    """The contract holds for any run seed, not one lucky constant."""
    for seed in (0, 1, 99):
        cfg_kwargs = dict(
            batch_interval=1.0, num_blocks=3, num_reducers=3,
            executor_workers=2, run_seed=seed,
        )
        runs = {}
        for executor in ("serial", "parallel"):
            engine = MicroBatchEngine(
                make_partitioner("prompt"),
                wordcount_query(window_length=2.0),
                EngineConfig(executor=executor, **cfg_kwargs),
            )
            runs[executor] = engine.run(
                synd_source(1.0, num_keys=200, arrival=ConstantRate(800.0), seed=3),
                3,
            )
        _assert_equivalent(runs["serial"], runs["parallel"])


def test_parallel_matches_serial_with_observability_enabled():
    """Tracing/metrics must observe the run, never steer it: the full
    differential contract holds with observability switched on, and the
    traced answers are byte-identical to the untraced baseline."""
    obs_cfg = ObservabilityConfig()
    serial = _run("synd-skewed", "base", "prompt", "serial", obs_cfg)
    parallel = _run("synd-skewed", "base", "prompt", "parallel", obs_cfg)
    _assert_equivalent(serial, parallel)
    untraced = _run("synd-skewed", "base", "prompt", "serial")
    assert pickle.dumps(serial.window_answers) == pickle.dumps(
        untraced.window_answers
    )
    assert serial.stats.records == untraced.stats.records
    # and the instrumentation actually captured the run
    assert len(serial.observability.tracer) > 0
    assert len(parallel.observability.tracer) > 0


def test_serial_runs_are_reproducible():
    """Baseline sanity: the serial reference itself is deterministic."""
    a = _run("synd-skewed", "base", "prompt", "serial")
    b = _run("synd-skewed", "base", "prompt", "serial")
    assert pickle.dumps(a.window_answers) == pickle.dumps(b.window_answers)
    assert a.stats.records == b.stats.records
