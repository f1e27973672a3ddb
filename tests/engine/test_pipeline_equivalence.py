"""Differential harness: the pipelined driver is bit-identical to sequential.

``pipeline_depth >= 2`` changes *when* the driver does its work — batch
k+1's ingest/partition overlaps batch k's execution — but must never
change *what* the engine computes.  Every case here runs the same seeded
workload at depth 1 (the strictly sequential reference) and at depth 2+
and requires

- byte-identical windowed answers (pickled per window, like the
  executor-equivalence harness),
- equal ``RunStats`` records field for field — the pipeline's
  wall-clock observations (``pipeline_wait_seconds``,
  ``pipeline_overlap_seconds``) are ``compare=False`` by design, the
  simulated timeline (ready/start/finish/queue delay) is not,
- identical backpressure verdicts, state stores and recoveries.

Coverage crosses executors (the eager serial handle and the true
dispatcher-thread parallel handle), both partitioning paths
(accumulator ``prompt`` and heartbeat-cut ``hash``), several run seeds,
and the fault-tolerance machinery *on in-flight handles*: task crashes
with retries, and a worker poison that breaks the process pool while
two batches are in flight.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.engine.faults import TaskFaultInjector
from repro.obs import ObservabilityConfig
from repro.partitioners import make_partitioner
from repro.queries import wordcount_query
from repro.workloads import ConstantRate, synd_source, tweets_source

NUM_BATCHES = 5

WORKLOADS = {
    "synd-skewed": lambda: synd_source(
        1.4, num_keys=300, arrival=ConstantRate(1_000.0), seed=11
    ),
    "tweets": lambda: tweets_source(rate=800.0, seed=42),
}

PARTITIONERS = ("prompt", "hash")
FEEDBACK_PARTITIONERS = ("d-choices", "w-choices", "fang")
EXECUTORS = ("serial", "parallel")


def _run(
    workload: str,
    partitioner: str,
    executor: str,
    depth: int,
    *,
    seed: int = 13,
    injector: TaskFaultInjector | None = None,
    observability: ObservabilityConfig | None = None,
):
    cfg = EngineConfig(
        batch_interval=1.0,
        num_blocks=4,
        num_reducers=4,
        executor=executor,
        executor_workers=2,
        run_seed=seed,
        pipeline_depth=depth,
        observability=observability,
    )
    engine = MicroBatchEngine(
        make_partitioner(partitioner),
        wordcount_query(window_length=3.0),
        cfg,
        task_fault_injector=injector,
    )
    return engine.run(WORKLOADS[workload](), NUM_BATCHES)


def _assert_equivalent(reference, pipelined):
    """Depth never leaks into results: windows, stats, control loops."""
    assert len(reference.window_answers) == len(pipelined.window_answers)
    for r_window, p_window in zip(
        reference.window_answers, pipelined.window_answers
    ):
        assert pickle.dumps(r_window) == pickle.dumps(p_window)
    assert reference.stats.records == pipelined.stats.records
    assert reference.stats.batch_interval == pipelined.stats.batch_interval
    assert reference.scaling_history == pipelined.scaling_history
    assert reference.backpressure.triggered == pipelined.backpressure.triggered
    assert reference.stable == pipelined.stable
    assert len(reference.recoveries) == len(pipelined.recoveries)
    assert len(reference.state_store) == len(pipelined.state_store)
    for record in reference.stats.records:
        if record.index in reference.state_store:
            assert dict(reference.state_store.get(record.index).output) == dict(
                pipelined.state_store.get(record.index).output
            )


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_depth2_matches_sequential(workload, partitioner, executor):
    """The tentpole contract: depth 2 == depth 1, on both executors and
    both partitioning paths."""
    reference = _run(workload, partitioner, executor, 1)
    pipelined = _run(workload, partitioner, executor, 2)
    _assert_equivalent(reference, pipelined)
    if executor == "parallel":
        assert pipelined.backend_name == "parallel"
        assert pipelined.executor_fallbacks == 0
        assert pipelined.stats.backends_used() == ("parallel",)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("partitioner", FEEDBACK_PARTITIONERS)
def test_feedback_consumers_depth2_matches_sequential(partitioner, executor):
    """The lag-2 feedback discipline makes the adaptive techniques
    driver-invariant: what they observe (and hence decide) is the same
    whether batch k-2 completed synchronously or was drained while
    batch k-1 was in flight."""
    reference = _run("synd-skewed", partitioner, executor, 1)
    pipelined = _run("synd-skewed", partitioner, executor, 2)
    _assert_equivalent(reference, pipelined)


@pytest.mark.parametrize("partitioner", FEEDBACK_PARTITIONERS)
def test_feedback_consumers_survive_task_crashes(partitioner):
    """Retries happen on the dispatcher thread while feedback for the
    crashed batch is still pending — the published load must be that of
    the *successful* attempt, identically to the sequential run."""
    injector = (
        TaskFaultInjector()
        .crash(0, "map", 0, times=1)
        .crash(1, "reduce", 1, times=2)
    )
    reference = _run("synd-skewed", partitioner, "serial", 1)
    pipelined = _run(
        "synd-skewed", partitioner, "parallel", 2, injector=injector
    )
    _assert_equivalent(reference, pipelined)
    assert pipelined.stats.total_task_retries() >= 3
    assert pipelined.executor_fallbacks == 0


@pytest.mark.parametrize("partitioner", FEEDBACK_PARTITIONERS)
def test_feedback_consumers_clamp_deeper_pipelines(partitioner):
    """Depth 4 cannot honor lag-2 delivery, so the engine clamps it for
    feedback consumers — the run must equal the sequential reference."""
    reference = _run("synd-skewed", partitioner, "parallel", 1)
    deep = _run("synd-skewed", partitioner, "parallel", 4)
    _assert_equivalent(reference, deep)


@pytest.mark.parametrize("seed", (0, 1, 7, 99))
def test_depth2_matches_sequential_across_seeds(seed):
    """The contract holds for any run seed, not one lucky constant."""
    reference = _run("synd-skewed", "prompt", "parallel", 1, seed=seed)
    pipelined = _run("synd-skewed", "prompt", "parallel", 2, seed=seed)
    _assert_equivalent(reference, pipelined)


def test_deeper_pipelines_match_too():
    """Depth 3 parks two batches behind the one executing; same answer."""
    reference = _run("tweets", "prompt", "parallel", 1)
    for depth in (3, 4):
        _assert_equivalent(reference, _run("tweets", "prompt", "parallel", depth))


def test_depth1_is_the_legacy_path_exactly():
    """``pipeline_depth=1`` must be indistinguishable from a config that
    never mentions the knob (the pre-pipeline default path)."""
    explicit = _run("synd-skewed", "prompt", "serial", 1)
    cfg = EngineConfig(
        batch_interval=1.0, num_blocks=4, num_reducers=4,
        executor="serial", executor_workers=2, run_seed=13,
    )
    engine = MicroBatchEngine(
        make_partitioner("prompt"), wordcount_query(window_length=3.0), cfg
    )
    implicit = engine.run(WORKLOADS["synd-skewed"](), NUM_BATCHES)
    _assert_equivalent(implicit, explicit)
    assert all(
        r.pipeline_wait_seconds == 0.0 and r.pipeline_overlap_seconds == 0.0
        for r in explicit.stats.records
    )


@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_task_crashes_on_in_flight_handles(partitioner):
    """Retries fire inside the dispatcher thread while the driver is off
    partitioning the next batch — and stay invisible in the results."""
    injector = (
        TaskFaultInjector()
        .crash(0, "map", 0, times=1)
        .crash(1, "reduce", 1, times=2)
    )
    reference = _run("synd-skewed", partitioner, "serial", 1)
    pipelined = _run(
        "synd-skewed", partitioner, "parallel", 2, injector=injector
    )
    _assert_equivalent(reference, pipelined)
    stats = pipelined.stats
    assert stats.total_task_retries() >= 3
    assert pipelined.executor_fallbacks == 0
    assert stats.backends_used() == ("parallel",)


@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_pool_kill_with_two_batches_in_flight(partitioner):
    """The acceptance-criteria case: a worker poison breaks the process
    pool while the pipeline holds two dispatched batches.  Resurrection
    happens on the dispatcher thread (it must not try to join itself);
    the run completes byte-identical with zero serial fallbacks."""
    injector = TaskFaultInjector().poison(2, "map", 1, times=1)
    reference = _run("synd-skewed", partitioner, "serial", 1)
    pipelined = _run(
        "synd-skewed", partitioner, "parallel", 3, injector=injector
    )
    _assert_equivalent(reference, pipelined)
    stats = pipelined.stats
    assert stats.total_pool_resurrections() == 1
    by_index = {r.index: r for r in stats.records}
    assert by_index[2].pool_resurrections == 1
    assert pipelined.executor_fallbacks == 0
    assert [r.backend for r in stats.records] == ["parallel"] * NUM_BATCHES


def test_unrecoverable_fault_degrades_to_serial_in_flight():
    """When resurrection budget runs out mid-handle, the serial fallback
    must complete the batch *on the dispatcher thread* and the run must
    still produce the sequential answer."""
    injector = TaskFaultInjector().poison(1, "map", 0, times=5)
    reference = _run("tweets", "prompt", "serial", 1)
    pipelined = _run(
        "tweets", "prompt", "parallel", 2, injector=injector
    )
    _assert_equivalent(reference, pipelined)
    assert pipelined.executor_fallbacks >= 1


def test_overlap_accounting_tells_the_truth():
    """Wall-clock accounting: the eager serial handle reports zero
    overlap (the driver *was* blocked inside submit), the async parallel
    handle reports non-negative overlap and wait, and none of it exists
    at depth 1."""
    sequential = _run("synd-skewed", "prompt", "parallel", 1)
    assert sequential.stats.total_pipeline_wait_seconds() == 0.0
    assert sequential.stats.total_pipeline_overlap_seconds() == 0.0

    eager = _run("synd-skewed", "prompt", "serial", 2)
    assert eager.stats.total_pipeline_overlap_seconds() == 0.0

    pipelined = _run("synd-skewed", "prompt", "parallel", 2)
    assert pipelined.stats.total_pipeline_wait_seconds() >= 0.0
    assert pipelined.stats.total_pipeline_overlap_seconds() >= 0.0


def test_pipeline_observability_reports_the_overlap():
    """Tracing must not steer the pipelined run, and must record it:
    ``pipeline_wait`` spans under the batch spans, ``execute`` spans on
    the dispatcher thread, and the depth gauge + stall histogram."""
    obs_cfg = ObservabilityConfig()
    traced = _run(
        "synd-skewed", "prompt", "parallel", 2, observability=obs_cfg
    )
    untraced = _run("synd-skewed", "prompt", "parallel", 2)
    _assert_equivalent(untraced, traced)

    spans = traced.observability.tracer.spans
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    assert len(by_name["pipeline_wait"]) == NUM_BATCHES
    assert len(by_name["execute"]) == NUM_BATCHES
    batch_ids = {s.span_id for s in by_name["batch"]}
    for span in by_name["pipeline_wait"] + by_name["execute"]:
        assert span.parent_id in batch_ids  # cross-thread link preserved

    snapshot = traced.observability.metrics.as_dict()
    assert snapshot["prompt_pipeline_depth"] == 2.0
    stall = snapshot["prompt_pipeline_stall_seconds"]
    assert stall["count"] == NUM_BATCHES

    # depth 1 keeps the metric namespace exactly as it was pre-pipeline
    sequential = _run(
        "synd-skewed", "prompt", "parallel", 1,
        observability=ObservabilityConfig(),
    )
    names = set(sequential.observability.metrics.as_dict())
    assert not any(n.startswith("prompt_pipeline") for n in names)


def test_completion_worker_reports_lag_at_depth2():
    """The pipelined driver's deferred ``_complete_batch`` work records
    a completion-lag observation per batch; depth 1 never does."""
    deep = _run(
        "synd-skewed", "prompt", "parallel", 2,
        observability=ObservabilityConfig(),
    )
    lag = deep.observability.metrics.as_dict()[
        "prompt_completion_lag_seconds"
    ]
    assert lag["count"] == NUM_BATCHES

    shallow = _run(
        "synd-skewed", "prompt", "parallel", 1,
        observability=ObservabilityConfig(),
    )
    names = set(shallow.observability.metrics.as_dict())
    assert "prompt_completion_lag_seconds" not in names
