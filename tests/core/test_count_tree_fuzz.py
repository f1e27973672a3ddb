"""Seeded fuzz of Algorithm 1's count-tree order and update budget.

Random tuple streams through :func:`~repro.core.kernels.accumulate_batch`
on a :class:`MicroBatchAccumulator` under varying ``budget`` settings
(which drive both ``f.step`` and ``t.step``), asserting the budget
mechanism's contract on each interval's batch:

- total tree repositionings stay within ``budget * K``;
- every key comes back exactly once with its exact tuple chain, and a
  tracked count never above its exact count;
- the order is the CountTree's traversal: non-increasing tracked count.

Each sequence is driven by ``random.Random(seed)`` with the seed in the
test id, so failures replay deterministically.
"""

from __future__ import annotations

import random

import pytest

from repro.core.batch import BatchInfo
from repro.core.buffering import MicroBatchAccumulator
from repro.core.config import AccumulatorConfig
from repro.core.kernels import accumulate_batch
from repro.core.tuples import StreamTuple


def _random_stream(rng: random.Random, *, num_keys: int, n: int, t_end: float):
    """Zipf-ish random stream with strictly increasing timestamps."""
    weights = [1.0 / (i + 1) for i in range(num_keys)]
    keys = [f"k{i}" for i in range(num_keys)]
    ts = sorted(rng.uniform(0.0, t_end * 0.999) for _ in range(n))
    return [
        StreamTuple(ts=ts[i], key=rng.choices(keys, weights)[0], value=i)
        for i in range(n)
    ]


def _assert_traversal_order(batch) -> None:
    tracked = [g.tracked_count for g in batch.key_groups]
    assert tracked == sorted(tracked, reverse=True)


@pytest.mark.parametrize("budget", [1, 2, 4, 8])
@pytest.mark.parametrize("seed", [0, 5])
def test_accumulator_budget_invariants(budget, seed):
    rng = random.Random(seed)
    config = AccumulatorConfig(
        budget=budget, expected_tuples=600, expected_keys=20
    )
    acc = MicroBatchAccumulator(config)
    info = BatchInfo(index=0, t_start=0.0, t_end=1.0)
    stream = _random_stream(rng, num_keys=20, n=600, t_end=1.0)
    exact: dict[str, list[StreamTuple]] = {}
    for t in stream:
        exact.setdefault(t.key, []).append(t)
    batch = accumulate_batch(stream, info, acc).batch
    assert batch.tree_updates <= budget * len(exact)
    # every key exactly once, with its exact tuple chain
    assert len(batch.key_groups) == len(exact)
    assert {g.key for g in batch.key_groups} == set(exact)
    for group in batch.key_groups:
        assert group.tuples == exact[group.key]
        assert 1 <= group.tracked_count <= len(group.tuples)
    _assert_traversal_order(batch)
    assert batch.tuple_count == len(stream)


@pytest.mark.parametrize("seed", [2, 9])
def test_accumulator_exact_updates_disable_budget(seed):
    """The ablation path: every tuple updates the tree, order is exact."""
    rng = random.Random(seed)
    acc = MicroBatchAccumulator(
        AccumulatorConfig(budget=1, expected_tuples=300, expected_keys=15),
        exact_updates=True,
    )
    stream = _random_stream(rng, num_keys=15, n=300, t_end=1.0)
    batch = accumulate_batch(stream, BatchInfo(index=0, t_start=0.0, t_end=1.0), acc).batch
    # one repositioning per non-first tuple of each key
    assert batch.tree_updates == len(stream) - batch.key_count
    assert batch.sort_quality() == 1.0
    for group in batch.key_groups:
        assert group.tracked_count == len(group.tuples)


@pytest.mark.parametrize("budget", [2, 5])
def test_accumulator_time_step_refreshes_rare_keys(budget):
    """Sparse streams hit the t.step heartbeat, not the f.step trigger.

    ``budget >= 2`` so the first heartbeat (``t.step = interval /
    budget``) lands inside the interval; with ``budget = 1`` it falls
    exactly on the interval end and legitimately never fires.
    """
    config = AccumulatorConfig(
        budget=budget, expected_tuples=10_000, expected_keys=2
    )
    acc = MicroBatchAccumulator(config)
    # initial f.step = 10_000 / (2 * budget) >> 12, so only time triggers
    assert config.initial_frequency_step > 12
    rare = [StreamTuple(ts=i * 0.08, key="rare", value=i) for i in range(12)]
    batch = accumulate_batch(rare, BatchInfo(index=0, t_start=0.0, t_end=1.0), acc).batch
    # the heartbeat still spent budget repositioning the key
    assert 1 <= batch.tree_updates <= budget
    assert batch.key_groups[0].tracked_count >= 2  # refreshed past insert


@pytest.mark.parametrize("seed", [4, 13, 77])
def test_accumulator_multi_interval_fuzz(seed):
    """Back-to-back intervals: state resets, history adapts f.step."""
    rng = random.Random(seed)
    acc = MicroBatchAccumulator(
        AccumulatorConfig(budget=4, expected_tuples=200, expected_keys=10)
    )
    sizes = []
    for index in range(4):
        t0 = float(index)
        n = rng.randint(50, 250)
        stream = [
            StreamTuple(
                ts=t0 + (i + 1) / (n + 1),
                key=f"k{rng.randint(0, 9)}",
                value=i,
            )
            for i in range(n)
        ]
        info = BatchInfo(index=index, t_start=t0, t_end=t0 + 1.0)
        batch = accumulate_batch(stream, info, acc).batch
        sizes.append((n, batch.key_count))
        assert batch.tuple_count == n
        assert sum(g.count for g in batch.key_groups) == n
        assert batch.tree_updates <= 4 * batch.key_count
        _assert_traversal_order(batch)
        # N_est / K_avg are the running means of the intervals so far
        assert acc.estimated_tuples() == sum(t for t, _ in sizes) // len(sizes)
        assert acc.average_keys() == sum(k for _, k in sizes) // len(sizes)
