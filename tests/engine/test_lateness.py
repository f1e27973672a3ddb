"""Late-tuple contract: classification, dropping, delayed sources."""

from __future__ import annotations

import pytest

from repro.core.batch import BatchInfo
from repro.core.tuples import StreamTuple
from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.engine.cluster import ClusterConfig
from repro.engine.lateness import LatenessConfig, LatenessMonitor
from repro.partitioners import make_partitioner
from repro.queries import wordcount_query
from repro.workloads.arrival import ConstantRate
from repro.workloads.late import DelayedSource
from repro.workloads.synd import synd_source

INFO = BatchInfo(index=2, t_start=2.0, t_end=3.0)


def _t(ts, key="k"):
    return StreamTuple(ts=ts, key=key)


def test_lateness_config_validation():
    with pytest.raises(ValueError):
        LatenessConfig(max_delay=-0.1)


def test_monitor_classifies_three_ways():
    monitor = LatenessMonitor(LatenessConfig(max_delay=0.2))
    admitted = monitor.admit(
        [_t(2.5), _t(1.9), _t(1.5)], INFO
    )
    assert monitor.on_time == 1
    assert monitor.late_accepted == 1  # 1.9 within 0.2 of batch start
    assert monitor.overdue == 1       # 1.5 is beyond the contract
    assert [t.ts for t in admitted] == [2.5, 1.9]
    assert monitor.drop_rate() == pytest.approx(1 / 3)


def test_monitor_can_keep_overdue_tuples():
    monitor = LatenessMonitor(LatenessConfig(max_delay=0.1, drop_overdue=False))
    admitted = monitor.admit([_t(0.5)], INFO)
    assert monitor.overdue == 1
    assert len(admitted) == 1


def test_monitor_zero_delay_contract():
    monitor = LatenessMonitor(LatenessConfig(max_delay=0.0))
    admitted = monitor.admit([_t(2.0), _t(1.999999)], INFO)
    assert monitor.on_time == 1
    assert monitor.overdue == 1
    assert len(admitted) == 1


def test_empty_batch_drop_rate():
    monitor = LatenessMonitor(LatenessConfig(max_delay=0.1))
    assert monitor.drop_rate() == 0.0


# ----------------------------------------------------------------------
# DelayedSource
# ----------------------------------------------------------------------
def _delayed(max_delay=0.3, fraction=0.3, seed=1):
    base = synd_source(0.8, num_keys=100, arrival=ConstantRate(1_000.0), seed=seed)
    return DelayedSource(
        base, max_delay=max_delay, delayed_fraction=fraction, seed=seed
    )


def test_delayed_source_validation():
    base = synd_source(0.5, rate=10.0)
    with pytest.raises(ValueError):
        DelayedSource(base, max_delay=-1.0)
    with pytest.raises(ValueError):
        DelayedSource(base, max_delay=1.0, delayed_fraction=2.0)


def test_delayed_source_conserves_tuples():
    source = _delayed()
    total = sum(len(source.tuples_between(float(k), float(k + 1))) for k in range(5))
    # everything stamped in [0,5) is ingested by 5 + max_delay
    tail = source.tuples_between(5.0, 6.0)
    stamped_early = [t for t in tail if t.ts < 5.0]
    assert total + len(stamped_early) >= 5_000


def test_delayed_source_produces_disorder():
    source = _delayed()
    tuples = source.tuples_between(0.0, 2.0)
    ts = [t.ts for t in tuples]
    assert ts != sorted(ts)  # some tuples arrive out of timestamp order


def test_delayed_source_respects_max_delay():
    source = _delayed(max_delay=0.25)
    for k in range(4):
        for t in source.tuples_between(float(k), float(k + 1)):
            assert t.ts > k - 0.25 - 1e-9


def test_delayed_source_zero_fraction_is_in_order():
    source = _delayed(fraction=0.0)
    tuples = source.tuples_between(0.0, 2.0)
    ts = [t.ts for t in tuples]
    assert ts == sorted(ts)


def test_delayed_source_reset_replays():
    source = _delayed()
    a = [t.key for t in source.tuples_between(0.0, 1.0)]
    source.reset()
    b = [t.key for t in source.tuples_between(0.0, 1.0)]
    assert a == b


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
def test_engine_enforces_delay_contract():
    config = EngineConfig(
        batch_interval=0.5,
        num_blocks=2,
        num_reducers=2,
        cluster=ClusterConfig(num_nodes=1, cores_per_node=4),
        lateness=LatenessConfig(max_delay=0.05),
        track_outputs=False,
    )
    engine = MicroBatchEngine(make_partitioner("hash"), wordcount_query(), config)
    result = engine.run(_delayed(max_delay=0.4, fraction=0.4, seed=3), 8)
    assert result.lateness is not None
    assert result.lateness.on_time > 0
    assert result.lateness.late_accepted > 0
    assert result.lateness.overdue > 0  # 0.4s delays exceed the 0.05 contract
    processed = result.stats.total_tuples
    assert processed == result.lateness.on_time + result.lateness.late_accepted


def test_engine_without_contract_has_no_monitor():
    config = EngineConfig(batch_interval=0.5, num_blocks=2, num_reducers=2,
                          track_outputs=False)
    engine = MicroBatchEngine(make_partitioner("hash"), wordcount_query(), config)
    result = engine.run(_delayed(seed=4), 3)
    assert result.lateness is None


def _admit_loop(config, tuples, info, counters):
    """The per-tuple classification ``LatenessMonitor.admit`` replaced,
    kept here as its oracle."""
    horizon = info.t_start - config.max_delay
    admitted = []
    for t in tuples:
        if t.ts >= info.t_start:
            counters[0] += 1
            admitted.append(t)
        elif t.ts >= horizon:
            counters[1] += 1
            admitted.append(t)
        else:
            counters[2] += 1
            if not config.drop_overdue:
                admitted.append(t)
    return admitted


@pytest.mark.parametrize("drop_overdue", [True, False])
def test_admit_matches_the_per_tuple_loop(drop_overdue):
    import math
    import random

    rng = random.Random(31)
    for trial in range(200):
        config = LatenessConfig(
            max_delay=rng.choice((0.0, 0.05, 0.2, 1.5)), drop_overdue=drop_overdue
        )
        info = BatchInfo(trial, float(trial % 7), float(trial % 7) + 1.0)
        horizon = info.t_start - config.max_delay
        edges = (info.t_start, horizon, math.nan, math.inf, -math.inf)
        tuples = [
            _t(
                rng.choice(edges)
                if rng.random() < 0.3
                else rng.uniform(horizon - 1.0, info.t_end),
                key=i,
            )
            for i in range(rng.randint(0, 60))
        ]
        monitor = LatenessMonitor(config)
        counters = [0, 0, 0]
        for _ in range(2):  # the counters accumulate across batches
            expected = _admit_loop(config, tuples, info, counters)
            admitted = monitor.admit(tuples, info)
            assert len(admitted) == len(expected)
            assert all(a is e for a, e in zip(admitted, expected))
            assert [monitor.on_time, monitor.late_accepted, monitor.overdue] == (
                counters
            )
