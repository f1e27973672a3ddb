"""Differential fault-injection suite: crashed, killed, and delayed
tasks never change what the engine computes.

This extends the executor-equivalence harness with the task-level
fault-tolerance layer: every case runs a workload once under the clean
:class:`SerialExecutor` reference and once under
:class:`ParallelExecutor` with a :class:`TaskFaultInjector` killing,
poisoning, or delaying chosen ``(batch, kind, task_id)`` attempts — and
requires the faulted parallel run to be **byte-identical** to the clean
serial run:

- per-window answers equal as pickled bytes,
- ``RunStats`` records equal field-for-field (the fault-tolerance
  counters are ``compare=False`` by design, and the same records must
  then show retries/resurrections actually happened),
- every batch still processed by the parallel backend — a broken pool
  at batch *k* is resurrected (or, with the budget at zero, costs one
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


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_task_crashes_and_pool_loss_are_invisible(workload, partitioner):
    """Acceptance case: 2 workloads x 3 partitioners, crashes + a broken
    pool, byte-identical to clean serial, retries > 0, resurrections > 0,
    and the batch after the breakage parallel again."""
    serial = _run(workload, partitioner, "serial")
    parallel = _run(
        workload, partitioner, "parallel", injector=_crash_and_poison_injector()
    )
    _assert_identical_results(serial, parallel)

    stats = parallel.stats
    assert stats.total_task_retries() >= 3  # 1 map crash + 2 reduce crashes
    assert stats.total_pool_resurrections() == 1
    assert parallel.executor_task_retries >= 3
    assert parallel.executor_pool_resurrections == 1

    # the faults hit the batches they were aimed at...
    by_index = {r.index: r for r in stats.records}
    assert by_index[0].task_retries >= 1
    assert by_index[1].task_retries >= 2
    assert by_index[2].pool_resurrections == 1
    # ...and no batch degraded to serial: the pool broken at batch 2 was
    # resurrected within the batch, and batch 3 ran parallel on it
    assert parallel.executor_fallbacks == 0
    assert [r.backend for r in stats.records] == ["parallel"] * NUM_BATCHES
    assert stats.backends_used() == ("parallel",)


@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_straggler_speculation_is_invisible(partitioner):
    """A delayed map attempt trips the per-task timeout; the speculative
    duplicate wins the race and the answer does not change by a byte."""
    workload = "synd-skewed"
    serial = _run(workload, partitioner, "serial")
    injector = TaskFaultInjector().delay(1, "map", 0, seconds=0.6)
    parallel = _run(
        workload,
        partitioner,
        "parallel",
        injector=injector,
        executor_workers=3,
        task_timeout=0.05,
        speculative_execution=True,
    )
    _assert_identical_results(serial, parallel)
    assert parallel.stats.total_timeout_trips() >= 1
    assert parallel.stats.total_speculative_wins() >= 1
    assert parallel.executor_speculative_wins >= 1
    assert parallel.executor_fallbacks == 0
    assert parallel.stats.backends_used() == ("parallel",)


def test_pool_broken_at_batch_k_is_parallel_again_at_k_plus_one():
    """Regression for the permanent serial degradation: with the
    resurrection budget at zero, the poisoned batch costs exactly one
    serial fallback — and the very next batch runs parallel again on a
    fresh pool, still byte-identical to the clean serial run."""
    workload, partitioner = "tweets", "prompt"
    serial = _run(workload, partitioner, "serial")
    injector = TaskFaultInjector().poison(1, "map", 0, times=1)
    parallel = _run(
        workload,
        partitioner,
        "parallel",
        injector=injector,
        max_pool_resurrections=0,
    )
    _assert_identical_results(serial, parallel)
    assert parallel.executor_fallbacks == 1
    backends = [r.backend for r in parallel.stats.records]
    assert backends[1] == "serial"  # the broken batch fell back...
    assert backends[2] == "parallel"  # ...but batch k+1 is parallel again
    assert backends == ["parallel", "serial", "parallel", "parallel"]
    assert parallel.stats.total_pool_resurrections() == 0


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
        _run("tweets", "prompt", "parallel", injector=injector, max_task_retries=1)
