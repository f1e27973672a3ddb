"""BatchRecord / RunStats derived quantities."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.engine.stats import BatchRecord, RunStats, percentile


def _record(index, *, interval=1.0, queue=0.0, processing=0.5, tuples=100,
            reduce_durations=(0.1, 0.2), buffer_elapsed=0.005,
            plan_elapsed=0.01):
    heartbeat = (index + 1) * interval
    start = heartbeat + queue
    return BatchRecord(
        index=index,
        t_start=index * interval,
        heartbeat=heartbeat,
        ready_at=heartbeat,
        exec_start=start,
        exec_finish=start + processing,
        processing_time=processing,
        tuple_count=tuples,
        key_count=10,
        map_tasks=4,
        reduce_tasks=len(reduce_durations),
        map_durations=(0.3, 0.4),
        reduce_durations=reduce_durations,
        bucket_weights=(50, 50),
        buffer_elapsed=buffer_elapsed,
        plan_elapsed=plan_elapsed,
    )


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 95) == 5.0
    assert percentile(values, 0) == 1.0
    assert percentile([], 50) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_percentile_q0_and_q100_are_extremes():
    values = [7.0, 3.0, 9.0, 1.0]
    assert percentile(values, 0) == 1.0    # min: rank clamps to 1
    assert percentile(values, 100) == 9.0  # max: rank = n


def test_percentile_single_element_any_q():
    for q in (0, 25, 50, 95, 100):
        assert percentile([42.0], q) == 42.0


def test_percentile_unsorted_input_matches_sorted():
    unsorted = [5.0, 1.0, 4.0, 2.0, 3.0]
    for q in (0, 20, 50, 80, 100):
        assert percentile(unsorted, q) == percentile(sorted(unsorted), q)


def test_percentile_all_equal_values():
    values = [2.5] * 8
    for q in (0, 50, 100):
        assert percentile(values, q) == 2.5


def test_percentile_rejects_nan():
    # sorted() with a NaN present yields an arrangement-dependent order,
    # so percentile must refuse rather than return a seed-dependent answer.
    with pytest.raises(ValueError, match="NaN"):
        percentile([1.0, math.nan, 2.0], 50)
    with pytest.raises(ValueError, match="NaN"):
        percentile([math.nan], 100)


def test_percentile_negative_q_rejected():
    with pytest.raises(ValueError):
        percentile([1.0], -0.1)


def test_record_derived_quantities():
    r = _record(2, queue=0.25, processing=0.5)
    assert r.batch_interval == 1.0
    assert r.queue_delay == pytest.approx(0.25)
    # latency: interval (1.0) + queue (0.25) + processing (0.5)
    assert r.latency == pytest.approx(1.75)
    assert r.load == pytest.approx(0.5)
    assert r.max_reduce_time == pytest.approx(0.2)
    assert r.mean_reduce_time == pytest.approx(0.15)


def test_run_stats_throughput():
    stats = RunStats(batch_interval=1.0)
    for i in range(4):
        stats.add(_record(i, tuples=200))
    # 800 tuples; the last batch cuts off at 4.0s but its 0.5s of
    # processing only finishes at 4.5s — the span covers the real finish
    assert stats.throughput() == pytest.approx(800 / 4.5)
    assert stats.total_tuples == 800


def test_run_stats_throughput_spans_real_finish_when_overloaded():
    """Regression: an overloaded run (queue delay growing, Cases II-IV)
    must divide by the time processing actually took.  The old span
    stopped at the last heartbeat, overstating throughput exactly for
    the runs where the number matters most."""
    stats = RunStats(batch_interval=1.0)
    for i in range(4):
        stats.add(_record(i, tuples=200, queue=1.0 * i))
    # last batch: heartbeat at 4.0s, but execution starts 3.0s late and
    # finishes at 4.0 + 3.0 + 0.5 = 7.5s
    assert stats.throughput() == pytest.approx(800 / 7.5)


def test_run_stats_throughput_early_finish_spans_heartbeat():
    """A batch that finishes before its interval ends still accounts the
    full interval: the system cannot emit faster than tuples arrive."""
    stats = RunStats(batch_interval=1.0)
    stats.add(
        BatchRecord(
            index=0,
            t_start=0.0,
            heartbeat=1.0,
            ready_at=0.5,
            exec_start=0.5,
            exec_finish=0.8,  # done before the interval's cut-off
            processing_time=0.3,
            tuple_count=100,
            key_count=10,
            map_tasks=4,
            reduce_tasks=2,
            map_durations=(0.1, 0.2),
            reduce_durations=(0.1, 0.2),
            bucket_weights=(50, 50),
            plan_elapsed=0.01,
        )
    )
    assert stats.throughput() == pytest.approx(100 / 1.0)


def test_run_stats_fault_tolerance_totals():
    stats = RunStats(batch_interval=1.0)
    stats.add(_record(0))
    stats.add(
        replace(
            _record(1),
            task_attempts=6,
            task_retries=2,
            pool_resurrections=1,
        )
    )
    assert stats.total_task_attempts() == 6
    assert stats.total_task_retries() == 2
    assert stats.total_pool_resurrections() == 1


def test_fault_tolerance_counters_do_not_affect_equality():
    """The counters are dispatch-side observations: a faulted run's
    records must still compare equal to a clean run's (the differential
    harness depends on this)."""
    clean = _record(0)
    faulted = replace(
        clean, task_attempts=9, task_retries=3, pool_resurrections=1
    )
    assert faulted == clean


def test_run_stats_latency_aggregates():
    stats = RunStats(batch_interval=1.0)
    stats.add(_record(0, processing=0.2))
    stats.add(_record(1, processing=0.6))
    assert stats.mean_latency() == pytest.approx(1.4)
    assert stats.p95_latency() == pytest.approx(1.6)


def test_run_stats_stability():
    good = RunStats(batch_interval=1.0)
    for i in range(5):
        good.add(_record(i, processing=0.8))
    assert good.is_stable()

    bad = RunStats(batch_interval=1.0)
    for i in range(5):
        bad.add(_record(i, processing=1.4, queue=1.5 * i))
    assert not bad.is_stable()


def test_run_stats_mean_load_with_skip():
    stats = RunStats(batch_interval=1.0)
    stats.add(_record(0, processing=10.0))  # warm-up outlier
    for i in range(1, 5):
        stats.add(_record(i, processing=0.5))
    assert stats.mean_load(skip=1) == pytest.approx(0.5)


def test_series_extracts():
    stats = RunStats(batch_interval=1.0)
    stats.add(_record(0))
    stats.add(_record(1, reduce_durations=(0.3, 0.5)))
    reduce_series = stats.reduce_time_series()
    assert reduce_series[1] == (1, pytest.approx(0.4), pytest.approx(0.5))
    assert stats.task_count_series() == [(0, 4, 2), (1, 4, 2)]
    assert stats.partition_overhead_fractions() == [
        pytest.approx(0.01),
        pytest.approx(0.01),
    ]


def test_partition_elapsed_split_sums_and_stays_out_of_equality():
    r = _record(0, buffer_elapsed=0.02, plan_elapsed=0.03)
    assert r.partition_elapsed == pytest.approx(0.05)
    # wall-clock phases are observations, not identity
    assert replace(r, buffer_elapsed=9.0, plan_elapsed=9.0) == r


def test_partition_overhead_fractions_use_plan_phase_only():
    stats = RunStats(batch_interval=2.0)
    stats.add(_record(0, interval=2.0, buffer_elapsed=1.0, plan_elapsed=0.1))
    assert stats.partition_overhead_fractions() == [pytest.approx(0.05)]


def test_empty_run_stats():
    stats = RunStats(batch_interval=1.0)
    assert stats.throughput() == 0.0
    assert stats.mean_latency() == 0.0
    assert stats.is_stable()
    assert stats.max_queue_delay() == 0.0
