"""Failure injection and exactly-once recovery (Section 8)."""

from __future__ import annotations

import pytest

from repro.core.tuples import StreamTuple
from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.engine.faults import (
    FailureInjector,
    InjectedTaskFault,
    TaskFault,
    TaskFaultInjector,
    TransientTaskError,
    recover_batch,
)
from repro.engine.state import StateStore
from repro.partitioners import make_partitioner
from repro.queries import debs_query1
from repro.queries.base import Query, SumAggregator
from repro.workloads import debs_taxi_source


def _query():
    return Query(name="sum", aggregator=SumAggregator())


def _tuples():
    return [
        StreamTuple(ts=0.0, key="a", value=1),
        StreamTuple(ts=0.1, key="b", value=2),
        StreamTuple(ts=0.2, key="a", value=3),
    ]


def test_recover_batch_recomputes_from_replica():
    store = StateStore(replicate_inputs=True)
    query = _query()
    tuples = _tuples()
    store.put(0, query.reference_output(tuples), tuples)
    store.drop_output(0)
    recovered = recover_batch(store, 0, query)
    assert dict(recovered) == {"a": 4, "b": 2}
    assert dict(store.get(0).output) == {"a": 4, "b": 2}


def test_recover_unreplicated_state_fails():
    store = StateStore()
    store.put(0, {"a": 1})
    with pytest.raises(RuntimeError, match="unrecoverable"):
        recover_batch(store, 0, _query())


def test_injector_exactly_once():
    store = StateStore(replicate_inputs=True)
    query = _query()
    tuples = _tuples()
    store.put(3, query.reference_output(tuples), tuples)
    injector = FailureInjector([3])
    assert injector.should_fail(3)
    assert not injector.should_fail(2)
    event = injector.fail_and_recover(store, 3, query)
    assert event.matched_original
    assert event.recovered_keys == 2
    assert injector.events == [event]


def test_injector_detects_nondeterministic_query():
    """A query whose recomputation differs flags the mismatch."""
    store = StateStore(replicate_inputs=True)
    tuples = _tuples()
    query = _query()
    store.put(0, {"a": 999}, tuples)  # wrong original state
    injector = FailureInjector([0])
    event = injector.fail_and_recover(store, 0, query)
    assert not event.matched_original


def test_recovered_float_batch_matches_when_prompt_splits_keys():
    """A recovered batch folds each block's fragments, then merges the
    blocks' partials in block order, as the engine did: float sums of
    split keys come back bit-equal and the window carries on as if no
    state had been lost."""

    def run(fail):
        cfg = EngineConfig(
            batch_interval=1.0, num_blocks=8, num_reducers=8, replicate_inputs=True
        )
        engine = MicroBatchEngine(
            make_partitioner("prompt"),
            debs_query1(time_scale=1 / 600),
            cfg,
            failure_injector=FailureInjector(fail),
        )
        source = debs_taxi_source(num_taxis=50, rate=3000.0, activity_skew=1.5, seed=3)
        return engine.run(source, 5)

    faulted, clean = run([1, 2, 3]), run([])
    assert [e.batch_index for e in faulted.recoveries] == [1, 2, 3]
    assert all(e.matched_original for e in faulted.recoveries)
    assert len(faulted.window_answers) == len(clean.window_answers) == 5
    for got, want in zip(faulted.window_answers, clean.window_answers):
        assert repr(sorted(got.items())) == repr(sorted(want.items()))


def test_injector_empty_by_default():
    injector = FailureInjector()
    assert not injector.should_fail(0)
    assert injector.events == []


# ----------------------------------------------------------------------
# task-level fault injection
# ----------------------------------------------------------------------
def test_task_fault_crash_gates_on_attempt():
    fault = TaskFault(crashes=2)
    with pytest.raises(InjectedTaskFault):
        fault.apply(0)
    with pytest.raises(InjectedTaskFault):
        fault.apply(1)
    fault.apply(2)  # past the doomed attempts: no-op


def test_injected_fault_is_transient():
    """The synthetic crash must count as retryable for the backend."""
    assert issubclass(InjectedTaskFault, TransientTaskError)


def test_task_fault_poison_past_budget_is_noop():
    # attempt >= poisons must NOT os._exit — the retried attempt survives
    TaskFault(poisons=1).apply(1)


def test_task_fault_validation():
    with pytest.raises(ValueError):
        TaskFault(crashes=-1)
    with pytest.raises(ValueError):
        TaskFault(poisons=-1)


def test_task_fault_injector_registers_and_looks_up():
    injector = (
        TaskFaultInjector()
        .crash(0, "map", 1, times=2)
        .poison(3, "reduce", 0)
    )
    assert len(injector) == 2
    assert injector.fault_for(0, "map", 1) == TaskFault(crashes=2)
    assert injector.fault_for(3, "reduce", 0) == TaskFault(poisons=1)
    assert injector.fault_for(0, "map", 0) is None
    assert injector.fault_for(0, "reduce", 1) is None


def test_task_fault_injector_merges_same_coordinate():
    """Chained registrations on one coordinate compose into one plan."""
    injector = (
        TaskFaultInjector()
        .poison(0, "map", 0)
        .crash(0, "map", 0, times=2)
    )
    assert len(injector) == 1
    assert injector.fault_for(0, "map", 0) == TaskFault(crashes=2, poisons=1)


def test_task_fault_injector_rejects_bad_arguments():
    injector = TaskFaultInjector()
    with pytest.raises(ValueError, match="kind"):
        injector.crash(0, "shuffle", 0)
    with pytest.raises(ValueError, match="times"):
        injector.crash(0, "map", 0, times=0)
