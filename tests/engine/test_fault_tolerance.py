"""Differential fault-injection suite: crashed and killed tasks never
change what the engine computes.

This extends the executor-equivalence harness with the task-level
fault-tolerance layer: every case runs a workload once under the clean
:class:`SerialExecutor` reference and once under
:class:`ParallelExecutor` with a :class:`TaskFaultInjector` crashing
or poisoning chosen ``(batch, kind, task_id)`` attempts — and requires
the faulted parallel run to be **byte-identical** to the clean serial
run:

- per-window answers equal as pickled bytes,
- ``RunStats`` records equal field-for-field (the fault-tolerance
  counters are ``compare=False`` by design, and the same records must
  then show retries/resurrections actually happened),
- every batch still processed by the parallel backend — a broken pool
  at batch *k* is resurrected (or, with the budget exhausted, costs one
  serial-fallback batch) and batch *k+1* runs parallel again.

That equality is the paper's Section 8 exactly-once property pushed
down to task granularity: recomputation from replicated (payload)
input, under the same derived seed, is indistinguishable from a
first-try success.
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

NUM_BATCHES = 4

WORKLOADS = {
    "synd-skewed": lambda: synd_source(
        1.4, num_keys=300, arrival=ConstantRate(1_000.0), seed=11
    ),
    "tweets": lambda: tweets_source(rate=800.0, seed=42),
}

# "fang" consumes worker-load feedback: its lagged load reports must
# survive retried and resurrected tasks byte for byte too
PARTITIONERS = ("prompt", "hash", "fang")


def _run(
    workload: str,
    partitioner: str,
    executor: str,
    injector: TaskFaultInjector | None = None,
    **cfg_overrides,
):
    cfg_kwargs = dict(
        batch_interval=1.0,
        num_blocks=4,
        num_reducers=4,
        executor=executor,
        executor_workers=2,
        run_seed=13,
    )
    cfg_kwargs.update(cfg_overrides)
    cfg = EngineConfig(**cfg_kwargs)
    engine = MicroBatchEngine(
        make_partitioner(partitioner),
        wordcount_query(window_length=3.0),
        cfg,
        task_fault_injector=injector,
    )
    return engine.run(WORKLOADS[workload](), NUM_BATCHES)


def _assert_identical_results(serial, parallel):
    """The faulted parallel run computes exactly the clean serial answer."""
    assert len(serial.window_answers) == len(parallel.window_answers)
    for s_window, p_window in zip(serial.window_answers, parallel.window_answers):
        assert pickle.dumps(s_window) == pickle.dumps(p_window)
    assert serial.stats.records == parallel.stats.records
    assert serial.scaling_history == parallel.scaling_history
    assert serial.stable == parallel.stable
    for record in serial.stats.records:
        if record.index in serial.state_store:
            assert dict(serial.state_store.get(record.index).output) == dict(
                parallel.state_store.get(record.index).output
            )


def _crash_and_poison_injector() -> TaskFaultInjector:
    """The standard fault plan: two task crashes plus one worker kill.

    - batch 0, map task 0: crashes once (retry succeeds),
    - batch 1, reduce task 1: crashes twice (two retries),
    - batch 2, map task 1: kills its worker process, breaking the whole
      pool mid-batch (resurrection resubmits the unfinished tasks).
    """
    return (
        TaskFaultInjector()
        .crash(0, "map", 0, times=1)
        .crash(1, "reduce", 1, times=2)
        .poison(2, "map", 1, times=1)
    )


def _same_wave_injector() -> TaskFaultInjector:
    """Crashes *and* a worker kill inside one wave, both stages of batch 1.

    Map tasks 0 and 3 crash while map task 1 kills its worker, then
    reduce task 0 crashes while reduce task 2 kills its worker.  Whether
    a crash is observed before its pool dies is a race, so only the
    second crash of map task 0 (a round with no kill) is a sure retry.
    """
    return (
        TaskFaultInjector()
        .crash(1, "map", 0, times=2)
        .poison(1, "map", 1)
        .crash(1, "map", 3)
        .poison(1, "reduce", 2)
        .crash(1, "reduce", 0)
    )


def _bundle_mate_injector() -> TaskFaultInjector:
    """Faults on the *second* task of a two-task bundle.

    Four tasks a wave over two workers are submitted as the bundles
    ``[0, 1]`` and ``[2, 3]``.  A crash of map task 1 / reduce task 3
    must come back in its own slot and cost its bundle-mate nothing; the
    worker kill by map task 3 voids its whole bundle (task 2's finished
    result dies with the process) and nothing that was already gathered.
    """
    return (
        TaskFaultInjector()
        .crash(0, "map", 1)
        .crash(1, "reduce", 3)
        .poison(2, "map", 3)
    )


#: plan -> (injector factory, {batch: retries at least}, {batch: resurrections})
FAULT_PLANS = {
    "standard": (_crash_and_poison_injector, {0: 1, 1: 2}, {2: 1}),
    "same-wave": (_same_wave_injector, {1: 1}, {1: 2}),
    "bundle-mate": (_bundle_mate_injector, {0: 1, 1: 1}, {2: 1}),
}


@pytest.mark.parametrize(
    "workload, partitioner, plan",
    [
        pytest.param(
            workload,
            partitioner,
            plan,
            # the standard plan keeps the ids it had before the plan axis
            id=f"{workload}-{partitioner}" + ("" if plan == "standard" else f"-{plan}"),
        )
        for plan in FAULT_PLANS
        for workload in sorted(WORKLOADS)
        for partitioner in PARTITIONERS
    ],
)
def test_task_crashes_and_pool_loss_are_invisible(workload, partitioner, plan):
    """Acceptance case: 2 workloads x 3 partitioners x 3 fault plans,
    crashes + broken pools, byte-identical to clean serial, retries > 0,
    resurrections > 0, and the batch after the breakage parallel again."""
    make_injector, min_retries, resurrections = FAULT_PLANS[plan]
    serial = _run(workload, partitioner, "serial")
    parallel = _run(workload, partitioner, "parallel", injector=make_injector())
    _assert_identical_results(serial, parallel)

    stats = parallel.stats
    assert stats.total_task_retries() >= sum(min_retries.values())
    assert stats.total_pool_resurrections() == sum(resurrections.values())
    assert parallel.executor_task_retries >= sum(min_retries.values())
    assert parallel.executor_pool_resurrections == sum(resurrections.values())

    # the faults hit the batches they were aimed at...
    by_index = {r.index: r for r in stats.records}
    for batch, retries in min_retries.items():
        assert by_index[batch].task_retries >= retries
    for batch, rebuilds in resurrections.items():
        assert by_index[batch].pool_resurrections == rebuilds
    if plan == "bundle-mate":
        # a crash re-runs only the task that crashed (8 tasks + 1 retry);
        # the kill re-runs its own bundle and at most the other one
        assert [by_index[b].task_attempts for b in (0, 1)] == [9, 9]
        assert [by_index[b].task_retries for b in (0, 1, 2)] == [1, 1, 0]
        assert 8 + 2 <= by_index[2].task_attempts <= 8 + 4
    # ...and no batch degraded to serial: every broken pool was
    # resurrected within its batch, and the next batch ran parallel on it
    assert parallel.executor_fallbacks == 0
    assert [r.backend for r in stats.records] == ["parallel"] * NUM_BATCHES
    assert stats.backends_used() == ("parallel",)


def test_pool_broken_at_batch_k_is_parallel_again_at_k_plus_one():
    """Regression for the permanent serial degradation: a task that
    kills its worker on every attempt exhausts the resurrection budget,
    which costs exactly one serial fallback — and the very next batch
    runs parallel again on a fresh pool, still byte-identical to the
    clean serial run."""
    workload, partitioner = "tweets", "prompt"
    serial = _run(workload, partitioner, "serial")
    injector = TaskFaultInjector().poison(1, "map", 0, times=3)
    parallel = _run(workload, partitioner, "parallel", injector=injector)
    _assert_identical_results(serial, parallel)
    assert parallel.executor_fallbacks == 1
    backends = [r.backend for r in parallel.stats.records]
    assert backends[1] == "serial"  # the broken batch fell back...
    assert backends[2] == "parallel"  # ...but batch k+1 is parallel again
    assert backends == ["parallel", "serial", "parallel", "parallel"]


def test_faulted_run_with_observability_still_byte_identical():
    """Tracing a faulted run neither changes the answer nor hides the
    faults: the differential contract holds with observability on, and
    the trace carries the retry / resurrection / attempt evidence."""
    workload, partitioner = "synd-skewed", "prompt"
    serial = _run(workload, partitioner, "serial")
    parallel = _run(
        workload,
        partitioner,
        "parallel",
        injector=_crash_and_poison_injector(),
        observability=ObservabilityConfig(),
    )
    _assert_identical_results(serial, parallel)
    assert parallel.stats.total_task_retries() >= 3
    assert parallel.stats.total_pool_resurrections() == 1

    tracer = parallel.observability.tracer
    names = [s.name for s in tracer.spans]
    assert names.count("task_retry") >= 3
    assert "pool_resurrection" in names
    retried = [
        s for s in tracer.spans
        if s.name in ("map_task", "reduce_task") and s.attrs.get("retries", 0) > 0
    ]
    assert retried, "stitched task spans must carry retry counts"
    assert all(s.attrs["attempt"] >= 1 for s in retried)

    metrics = parallel.observability.metrics.as_dict()
    assert metrics["prompt_task_retries_total"] >= 3
    assert metrics["prompt_pool_resurrections_total"] == 1


def test_retries_exhausted_fails_loudly_not_wrongly():
    """A task that crashes past the retry budget propagates the fault —
    the run errors out rather than shipping a masked or partial answer."""
    from repro.engine.faults import InjectedTaskFault

    injector = TaskFaultInjector().crash(0, "map", 0, times=5)
    with pytest.raises(InjectedTaskFault):
        _run("tweets", "prompt", "parallel", injector=injector)
