"""Execution backends: seeds, registry, fallback policy, pool lifecycle,
and the task-level fault-tolerance layer (retries, pool resurrection)."""

from __future__ import annotations

import pickle

import pytest

from concurrent.futures.process import BrokenProcessPool

from repro.core.batch import BatchInfo
from repro.core.tuples import StreamTuple
from repro.engine.engine import EngineConfig
from repro.engine.executors import (
    EXECUTOR_NAMES,
    ExecutorKind,
    ParallelExecutor,
    PayloadSerializationError,
    SerialExecutor,
    _is_infrastructure_error,
    make_executor,
)
from repro.engine.faults import InjectedTaskFault, TaskFaultInjector, TransientTaskError
from repro.engine.tasks import TaskCostModel, derive_task_seed, execute_batch_tasks
from repro.partitioners import HashPartitioner
from repro.queries.base import Aggregator, Query, SumAggregator
from repro.queries.wordcount import count_one

INFO = BatchInfo(0, 0.0, 1.0)


def _tuples(n=40, keys=5):
    return [
        StreamTuple(ts=i * 0.01, key=f"k{i % keys}", value=i) for i in range(n)
    ]


def _batch(tuples=None, p=3):
    part = HashPartitioner()
    return part.partition(tuples if tuples is not None else _tuples(), p, INFO), part


def _query(**kw):
    kw.setdefault("map_fn", count_one)
    return Query(name="q", aggregator=SumAggregator(), **kw)


# ----------------------------------------------------------------------
# seed derivation
# ----------------------------------------------------------------------
def test_task_seed_is_stable():
    assert derive_task_seed(0, 0, "map", 0) == derive_task_seed(0, 0, "map", 0)


def test_task_seed_distinguishes_every_coordinate():
    base = derive_task_seed(1, 2, "map", 3)
    assert derive_task_seed(9, 2, "map", 3) != base
    assert derive_task_seed(1, 9, "map", 3) != base
    assert derive_task_seed(1, 2, "reduce", 3) != base
    assert derive_task_seed(1, 2, "map", 9) != base


def test_task_seed_fits_in_63_bits():
    for args in [(0, 0, "map", 0), (2**40, 10**6, "reduce", 4096)]:
        seed = derive_task_seed(*args)
        assert 0 <= seed < 2**63


# ----------------------------------------------------------------------
# ExecutorKind
# ----------------------------------------------------------------------
def test_executor_kind_is_string_compatible():
    """The enum replaced stringly-typed config without breaking either
    direction: members equal their registry strings and render as them."""
    assert ExecutorKind.SERIAL == "serial"
    assert ExecutorKind.PARALLEL == "parallel"
    assert str(ExecutorKind.PARALLEL) == "parallel"
    assert f"{ExecutorKind.SERIAL}" == "serial"
    assert ExecutorKind("parallel") is ExecutorKind.PARALLEL
    assert EXECUTOR_NAMES == tuple(kind.value for kind in ExecutorKind)


def test_engine_config_normalizes_executor_strings():
    assert EngineConfig().executor is ExecutorKind.SERIAL
    assert EngineConfig(executor="parallel").executor is ExecutorKind.PARALLEL
    assert (
        EngineConfig(executor=ExecutorKind.PARALLEL).executor
        is ExecutorKind.PARALLEL
    )


def test_engine_config_rejects_unknown_executor():
    with pytest.raises(ValueError, match="executor must be one of"):
        EngineConfig(executor="gpu")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_make_executor_builds_both_backends():
    assert isinstance(make_executor("serial"), SerialExecutor)
    parallel = make_executor("parallel", max_workers=2, run_seed=5)
    assert isinstance(parallel, ParallelExecutor)
    assert parallel.max_workers == 2
    assert parallel.run_seed == 5
    parallel.close()


def test_make_executor_accepts_enum_members():
    make_executor(ExecutorKind.SERIAL).close()
    backend = make_executor(ExecutorKind.PARALLEL, max_workers=2)
    assert isinstance(backend, ParallelExecutor)
    backend.close()


def test_make_executor_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown executor"):
        make_executor("gpu")


def test_executor_names_cover_registry():
    for name in EXECUTOR_NAMES:
        make_executor(name).close()


def test_parallel_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ParallelExecutor(0)


# ----------------------------------------------------------------------
# serial backend
# ----------------------------------------------------------------------
def test_serial_executor_matches_reference_function():
    batch, part = _batch()
    query = _query()
    with SerialExecutor(run_seed=3) as backend:
        execution = backend.run_batch(batch, query, part, 2, TaskCostModel())
    reference = execute_batch_tasks(
        batch, query, part, 2, TaskCostModel(), run_seed=3
    )
    assert execution.batch_output() == reference.batch_output()
    assert execution.map_durations == reference.map_durations
    assert execution.backend == "serial"


# ----------------------------------------------------------------------
# parallel backend
# ----------------------------------------------------------------------
def test_parallel_executor_matches_serial_on_one_batch():
    batch, part = _batch()
    query = _query()
    serial = execute_batch_tasks(batch, query, part, 3, TaskCostModel())
    with ParallelExecutor(2) as backend:
        parallel = backend.run_batch(batch, query, part, 3, TaskCostModel())
    assert backend.fallbacks == 0
    assert parallel.backend == "parallel"
    assert pickle.dumps(parallel.batch_output()) == pickle.dumps(
        serial.batch_output()
    )
    assert parallel.map_durations == serial.map_durations
    assert parallel.reduce_durations == serial.reduce_durations


def test_parallel_pool_is_reused_across_batches():
    part = HashPartitioner()
    with ParallelExecutor(2) as backend:
        for k in range(3):
            info = BatchInfo(k, float(k), float(k + 1))
            batch = part.partition(_tuples(), 3, info)
            backend.run_batch(batch, _query(), part, 2, TaskCostModel())
        assert backend._pool is not None
        pool = backend._pool
        batch = part.partition(_tuples(), 3, BatchInfo(9, 9.0, 10.0))
        backend.run_batch(batch, _query(), part, 2, TaskCostModel())
        assert backend._pool is pool
    assert backend._pool is None  # context exit shut the pool down


def test_unpicklable_query_falls_back_to_serial():
    batch, part = _batch()
    query = _query(map_fn=lambda k, v: 1)  # lambdas cannot be pickled
    with ParallelExecutor(2) as backend:
        execution = backend.run_batch(batch, query, part, 2, TaskCostModel())
    assert backend.fallbacks == 1
    assert backend.last_fallback_reason is not None
    assert execution.backend == "serial"
    reference = execute_batch_tasks(batch, query, part, 2, TaskCostModel())
    assert execution.batch_output() == reference.batch_output()


def test_unpicklable_last_block_falls_back_with_earlier_tasks_in_flight():
    """Payloads are pickled as each task launches, so a bad value in
    the *last* block surfaces after the earlier Map tasks went out: the
    batch must still degrade cleanly and leave the pool serviceable."""
    probe, part = _batch()
    last_key = next(iter(probe.blocks[-1].keys))
    assert all(last_key not in block for block in probe.blocks[:-1])
    tuples = _tuples()
    poisoned = next(i for i, t in enumerate(tuples) if t.key == last_key)
    tuples[poisoned] = StreamTuple(
        ts=tuples[poisoned].ts, key=last_key, value=lambda: None
    )
    batch, _ = _batch(tuples)
    cm = TaskCostModel()
    with ParallelExecutor(2) as backend:
        execution = backend.run_batch(batch, _query(), part, 2, cm)
        assert backend.task_attempts == len(batch.blocks) - 1  # were in flight
        assert backend.fallbacks == 1
        assert "PayloadSerializationError" in backend.last_fallback_reason
        assert execution.backend == "serial"
        reference = SerialExecutor().run_batch(batch, _query(), part, 2, cm)
        assert execution.batch_output() == reference.batch_output()
        assert execution.map_durations == reference.map_durations

        pool = backend._pool
        clean = part.partition(_tuples(), 3, BatchInfo(1, 1.0, 2.0))
        after = backend.run_batch(clean, _query(), part, 2, cm)
        assert after.backend == "parallel"
        assert backend._pool is pool
        assert backend.pool_resurrections == 0
        assert backend.fallbacks == 1


def _raise_for_k3(key, value):
    if key == "k3":
        raise RuntimeError("application bug in map_fn")
    return 1


def test_application_errors_propagate_instead_of_falling_back():
    batch, part = _batch()
    query = _query(map_fn=_raise_for_k3)
    with ParallelExecutor(2) as backend:
        with pytest.raises(RuntimeError, match="application bug") as raised:
            backend.run_batch(batch, query, part, 2, TaskCostModel())
    assert backend.fallbacks == 0  # a masked bug would be worse than a crash
    # its own type (not a wrapper), and the worker-side traceback — the
    # frame that raised, in the worker process — rides along as its cause
    assert type(raised.value) is RuntimeError
    assert "_raise_for_k3" in str(raised.value.__cause__)


class _Unshippable:
    """A Map output that computes fine but cannot leave its process."""

    def __reduce__(self):
        raise pickle.PicklingError("result holds a live handle")


class _KeepLast(Aggregator):
    def zero(self):
        return None

    def add(self, acc, value):
        return value

    def merge(self, a, b):
        return b

    def inverse(self, a, b):
        return a


def _unshippable(key, value):
    return _Unshippable()


def test_unpicklable_result_falls_back_to_serial():
    """The tasks ran; shipping their bundle's results back is what
    failed — a dispatch failure, so the batch is recomputed in-process."""
    batch, part = _batch()
    query = Query(name="q", aggregator=_KeepLast(), map_fn=_unshippable)
    with ParallelExecutor(2) as backend:
        execution = backend.run_batch(batch, query, part, 2, TaskCostModel())
    assert backend.fallbacks == 1
    assert "PicklingError" in backend.last_fallback_reason
    assert execution.backend == "serial"
    assert set(execution.batch_output()) == {t.key for t in _tuples()}


def test_infrastructure_error_classifier():
    """Classification is by raise-site, not message text."""
    assert _is_infrastructure_error(pickle.PicklingError("x"))
    assert _is_infrastructure_error(PayloadSerializationError("unpicklable"))
    assert _is_infrastructure_error(BrokenProcessPool("pool died"))
    # a *worker-raised* TypeError/AttributeError is the query's own bug,
    # even when its message happens to mention pickle
    assert not _is_infrastructure_error(TypeError("cannot pickle '_thread.lock'"))
    assert not _is_infrastructure_error(
        AttributeError("Can't pickle local object 'f.<locals>.<lambda>'")
    )
    assert not _is_infrastructure_error(TypeError("bad operand type"))
    assert not _is_infrastructure_error(AttributeError("no attribute 'foo'"))
    assert not _is_infrastructure_error(RuntimeError("boom"))
    assert not _is_infrastructure_error(AssertionError("key locality violated"))


def _raise_pickle_flavoured_typeerror(key, value):
    raise TypeError("cannot pickle this value (application bug)")


def _raise_pickle_flavoured_attributeerror(key, value):
    raise AttributeError("Can't pickle local object (application bug)")


@pytest.mark.parametrize(
    "map_fn, exc_type",
    [
        (_raise_pickle_flavoured_typeerror, TypeError),
        (_raise_pickle_flavoured_attributeerror, AttributeError),
    ],
)
def test_worker_raised_pickle_flavoured_errors_propagate(map_fn, exc_type):
    """A query bug whose message mentions "pickle" must not be swallowed
    into the serial fallback — the payload pickled fine on the driver."""
    batch, part = _batch()
    query = _query(map_fn=map_fn)
    with ParallelExecutor(2) as backend:
        with pytest.raises(exc_type, match="application bug"):
            backend.run_batch(batch, query, part, 2, TaskCostModel())
    assert backend.fallbacks == 0


def test_parallel_rejects_zero_reducers():
    batch, part = _batch()
    with ParallelExecutor(2) as backend:
        with pytest.raises(ValueError):
            backend.run_batch(batch, _query(), part, 0, TaskCostModel())


def test_close_is_idempotent():
    backend = ParallelExecutor(2)
    backend.close()
    backend.close()


# ----------------------------------------------------------------------
# task-level fault tolerance
# ----------------------------------------------------------------------
def _reference(batch, part, query, reducers=2):
    return execute_batch_tasks(batch, query, part, reducers, TaskCostModel())


def _assert_crash_is_retried(task_id, times):
    batch, part = _batch()
    query = _query()
    injector = TaskFaultInjector().crash(0, "map", task_id, times=times)
    with ParallelExecutor(2, fault_injector=injector) as backend:
        execution = backend.run_batch(batch, query, part, 2, TaskCostModel())
    assert execution.backend == "parallel"
    assert execution.task_retries == times
    # 3 map tasks + the retried map attempts + 2 reduce tasks
    assert execution.task_attempts == len(batch.blocks) + times + 2
    assert backend.task_retries == times
    assert backend.fallbacks == 0
    reference = _reference(batch, part, query)
    assert pickle.dumps(execution.batch_output()) == pickle.dumps(
        reference.batch_output()
    )
    assert execution.map_durations == reference.map_durations


def test_injected_crash_is_retried_with_identical_result():
    _assert_crash_is_retried(task_id=0, times=2)


def test_crash_of_a_bundle_mate_reruns_only_that_task():
    """3 map tasks over 2 workers go out as bundles [0, 1] and [2]: the
    crash of task 1 comes back in its own slot, so its bundle-mate 0 is
    neither re-run nor voided — one retry, one extra attempt."""
    _assert_crash_is_retried(task_id=1, times=1)


def test_retried_task_reuses_its_seed():
    batch, part = _batch()
    query = _query()
    injector = TaskFaultInjector().crash(0, "reduce", 1, times=1)
    with ParallelExecutor(2, fault_injector=injector, run_seed=7) as backend:
        execution = backend.run_batch(batch, query, part, 3, TaskCostModel())
    for r in execution.reduce_results:
        assert r.task_seed == derive_task_seed(7, 0, "reduce", r.bucket_index)


def test_retries_exhausted_propagates_the_fault():
    batch, part = _batch()
    query = _query()
    injector = TaskFaultInjector().crash(0, "map", 1, times=5)
    with ParallelExecutor(2, fault_injector=injector) as backend:
        with pytest.raises(InjectedTaskFault):
            backend.run_batch(batch, query, part, 2, TaskCostModel())
    # an injected fault is transient, not infrastructure: no serial mask
    assert backend.fallbacks == 0
    assert backend.task_retries == 2


def _raise_transient(key, value):
    raise TransientTaskError("flaky dependency")


def test_transient_application_error_consumes_budget_then_propagates():
    """TransientTaskError is retried; a deterministic one eventually
    propagates instead of being masked by the serial fallback."""
    batch, part = _batch()
    query = _query(map_fn=_raise_transient)
    with ParallelExecutor(2) as backend:
        with pytest.raises(TransientTaskError, match="flaky dependency"):
            backend.run_batch(batch, query, part, 2, TaskCostModel())
    # every map task fails deterministically; at least one task had to
    # burn its whole budget before the propagation (others race freely)
    assert 2 <= backend.task_retries <= 2 * len(batch.blocks)
    assert backend.fallbacks == 0


def test_pool_resurrection_resumes_the_same_batch():
    """A poisoned worker breaks the pool mid-wave; the pool is rebuilt
    and only unfinished tasks rerun — the batch still completes parallel."""
    batch, part = _batch()
    query = _query()
    injector = TaskFaultInjector().poison(0, "map", 1)
    with ParallelExecutor(2, fault_injector=injector) as backend:
        execution = backend.run_batch(batch, query, part, 2, TaskCostModel())
        assert execution.backend == "parallel"
        assert execution.pool_resurrections == 1
        assert backend.pool_resurrections == 1
        assert backend.fallbacks == 0
        # bundles [0, 1] and [2]: the kill voids its own bundle, and the
        # other one only if it had not come back yet; 2 reduce tasks
        assert execution.task_attempts in (3 + 2 + 2, 3 + 3 + 2)
        assert execution.task_retries == 0
        reference = _reference(batch, part, query)
        assert pickle.dumps(execution.batch_output()) == pickle.dumps(
            reference.batch_output()
        )
        # the replacement pool is healthy for the next batch
        batch2 = part.partition(_tuples(), 3, BatchInfo(1, 1.0, 2.0))
        execution2 = backend.run_batch(batch2, query, part, 2, TaskCostModel())
        assert execution2.backend == "parallel"
        assert execution2.pool_resurrections == 0


def test_pool_break_no_longer_pins_the_run_to_serial():
    """Regression: one BrokenProcessPool used to degrade every later
    batch to serial.  With the resurrection budget exhausted (a task that
    kills its worker three times: two rebuilds, then the budget is gone)
    the broken batch falls back — and the *next* batch runs parallel again."""
    batch, part = _batch()
    query = _query()
    injector = TaskFaultInjector().poison(0, "map", 0, times=3)
    with ParallelExecutor(2, fault_injector=injector) as backend:
        execution = backend.run_batch(batch, query, part, 2, TaskCostModel())
        assert execution.backend == "serial"
        assert backend.pool_resurrections == 2
        assert backend.fallbacks == 1
        assert "BrokenProcessPool" in backend.last_fallback_reason
        batch2 = part.partition(_tuples(), 3, BatchInfo(1, 1.0, 2.0))
        execution2 = backend.run_batch(batch2, query, part, 2, TaskCostModel())
        assert execution2.backend == "parallel"
        assert backend.fallbacks == 1  # no new fallback
