"""Algorithm 1 (``accumulate_batch`` on a ``MicroBatchAccumulator``):
budgeted quasi-sorting."""

from __future__ import annotations

import random

import pytest

from repro.core.batch import BatchInfo
from repro.core.buffering import MicroBatchAccumulator
from repro.core.config import AccumulatorConfig
from repro.core.kernels import accumulate_batch
from repro.core.tuples import StreamTuple

from ..conftest import make_tuples, zipfish_freqs


def _info(index=0, t0=0.0, t1=1.0):
    return BatchInfo(index=index, t_start=t0, t_end=t1)


def _feed(acc, tuples, info=None):
    """One interval through Algorithm 1; returns its batch."""
    return accumulate_batch(tuples, info or _info(), acc)


def test_rejects_empty_interval():
    acc = MicroBatchAccumulator()
    with pytest.raises(ValueError):
        _feed(acc, [], BatchInfo(0, 1.0, 1.0))


def test_counts_tuples_and_keys():
    acc = MicroBatchAccumulator()
    batch = _feed(acc, make_tuples({"a": 3, "b": 2, "c": 1}))
    assert batch.tuple_count == 6
    assert batch.key_count == 3


def test_finalize_packages_all_tuples():
    acc = MicroBatchAccumulator()
    tuples = make_tuples({"a": 5, "b": 3, "c": 2}, shuffle_seed=1)
    batch = _feed(acc, tuples)
    assert batch.tuple_count == 10
    assert batch.key_count == 3
    assert int(batch.counts.sum()) == 10
    assert sum(map(len, batch.chains)) == 10
    assert set(batch.keys) == {"a", "b", "c"}


def test_exact_mode_yields_fully_sorted_groups():
    """Exactly sorted by frequency, so ``sort_quality`` is 1.0 — also
    when tuple weights make the weight order differ from it."""
    rng = random.Random(11)
    weighted = [
        StreamTuple(
            ts=i / 400, key=f"p{int(rng.paretovariate(1.1)) % 30}",
            weight=rng.randint(1, 5),
        )
        for i in range(400)
    ]
    for tuples in (make_tuples(zipfish_freqs(30, 600), shuffle_seed=5), weighted):
        batch = _feed(MicroBatchAccumulator(exact_updates=True), tuples)
        counts = batch.counts.tolist()
        assert counts == sorted(counts, reverse=True)
        assert batch.sort_quality() == 1.0


def test_exact_mode_tracked_counts_match_exact_counts():
    acc = MicroBatchAccumulator(exact_updates=True)
    batch = _feed(acc, make_tuples({"a": 7, "b": 4}, shuffle_seed=2))
    assert batch.tracked.tolist() == batch.counts.tolist() == [7, 4]


def test_budget_limits_tree_updates():
    config = AccumulatorConfig(budget=2, expected_tuples=1000, expected_keys=10)
    acc = MicroBatchAccumulator(config)
    batch = _feed(acc, make_tuples({"hot": 500}, spacing=1e-6))
    # one insert (not counted as update) + at most `budget` repositionings
    assert batch.tree_updates <= config.budget


def test_budgeted_quasi_sort_is_good_on_skewed_data():
    config = AccumulatorConfig(budget=8, expected_tuples=1000, expected_keys=50)
    acc = MicroBatchAccumulator(config)
    batch = _feed(
        acc, make_tuples(zipfish_freqs(50, 1000), spacing=1e-4, shuffle_seed=9)
    )
    # Quasi-sorted: the overwhelming majority of adjacent pairs ordered.
    assert batch.sort_quality() >= 0.85
    # And the actual hottest key surfaces at/near the top.
    top_keys = batch.keys[:3]
    assert "k0" in top_keys


def test_tree_updates_much_cheaper_than_per_tuple():
    n = 2000
    config = AccumulatorConfig(budget=4, expected_tuples=n, expected_keys=20)
    acc = MicroBatchAccumulator(config)
    batch = _feed(acc, make_tuples(zipfish_freqs(20, n), spacing=1e-5, shuffle_seed=3))
    # Bounded by roughly budget * K, far below one update per tuple.
    assert batch.tree_updates <= config.budget * batch.key_count
    assert batch.tree_updates < batch.tuple_count / 4


def test_time_step_triggers_updates_for_slow_keys():
    """A key receiving sparse tuples still refreshes via t.step."""
    config = AccumulatorConfig(budget=4, expected_tuples=10_000, expected_keys=2)
    acc = MicroBatchAccumulator(config)
    # f.step is initially huge (10_000/(2*4)); only t.step can fire.
    slow = [StreamTuple(ts=i * 1.2, key="slow") for i in range(8)]
    batch = _feed(acc, slow, _info(t1=10.0))
    assert batch.tree_updates >= 1
    assert batch.tracked[0] > 1  # refreshed beyond the insert


def test_history_adapts_estimates():
    config = AccumulatorConfig(budget=4, expected_tuples=10, expected_keys=1)
    acc = MicroBatchAccumulator(config)
    for k in range(3):
        _feed(
            acc,
            make_tuples({f"x{i}": 4 for i in range(25)}, start=float(k), spacing=1e-4),
            _info(index=k, t0=float(k), t1=float(k + 1)),
        )
    assert acc.estimated_tuples() == 100
    assert acc.average_keys() == 25


def test_total_weight_tracked():
    acc = MicroBatchAccumulator()
    batch = _feed(
        acc,
        [StreamTuple(ts=0.0, key="a", weight=5), StreamTuple(ts=0.1, key="b", weight=2)],
    )
    assert batch.total_weight == 7


def test_consecutive_intervals_are_independent():
    acc = MicroBatchAccumulator()
    first = _feed(acc, make_tuples({"a": 10}), _info(index=0))
    second = _feed(acc, make_tuples({"b": 5}, start=1.0), _info(index=1, t0=1.0, t1=2.0))
    assert first.key_count == 1 and second.key_count == 1
    assert second.keys == ["b"]


def test_sort_quality_of_single_key_batch_is_one():
    acc = MicroBatchAccumulator()
    assert _feed(acc, make_tuples({"only": 5})).sort_quality() == 1.0
