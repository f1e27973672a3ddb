"""Property tests for Algorithm 1's accumulator on random streams."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchInfo
from repro.core.buffering import MicroBatchAccumulator
from repro.core.config import AccumulatorConfig
from repro.core.kernels import accumulate_batch
from repro.core.sketch_accumulator import SketchMicroBatchAccumulator
from repro.core.tuples import StreamTuple

INFO = BatchInfo(0, 0.0, 1.0)


@st.composite
def streams(draw, max_weight=1):
    n = draw(st.integers(1, 300))
    keys = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, max_weight), min_size=n, max_size=n))
    return [
        StreamTuple(ts=i / n, key=k, value=None, weight=w)
        for i, (k, w) in enumerate(zip(keys, weights))
    ]


@given(
    tuples=streams(),
    budget=st.integers(1, 16),
    exact=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_property_accumulator_conserves_everything(tuples, budget, exact):
    """Every tuple ends up in exactly one key group, with exact counts."""
    acc = MicroBatchAccumulator(
        AccumulatorConfig(budget=budget, expected_tuples=max(1, len(tuples)),
                          expected_keys=41),
        exact_updates=exact,
    )
    batch = accumulate_batch(tuples, INFO, acc).batch
    truth = Counter(t.key for t in tuples)
    got = {g.key: g.count for g in batch.key_groups}
    assert got == dict(truth)
    assert batch.tuple_count == len(tuples)
    # one group per key, never duplicates
    assert len(batch.key_groups) == len(truth)


@given(tuples=streams(), budget=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_property_tree_updates_bounded_by_budget(tuples, budget):
    """Tree repositionings never exceed budget * distinct keys."""
    acc = MicroBatchAccumulator(
        AccumulatorConfig(budget=budget, expected_tuples=max(1, len(tuples)),
                          expected_keys=41)
    )
    batch = accumulate_batch(tuples, INFO, acc).batch
    assert batch.tree_updates <= budget * batch.key_count


@given(tuples=streams(max_weight=5))
@settings(max_examples=60, deadline=None)
def test_property_exact_mode_fully_sorted(tuples):
    """Without the budget the order is exactly by frequency (tuple
    counts, not weights), tracked counts are exact and ``sort_quality``
    reads 1.0."""
    batch = accumulate_batch(
        tuples, INFO, MicroBatchAccumulator(exact_updates=True)
    ).batch
    counts = [g.count for g in batch.key_groups]
    assert counts == sorted(counts, reverse=True)
    assert all(g.tracked_count == g.count for g in batch.key_groups)
    assert batch.sort_quality() == 1.0


@given(tuples=streams(), capacity=st.integers(1, 32))
@settings(max_examples=60, deadline=None)
def test_property_sketch_accumulator_conserves_everything(tuples, capacity):
    acc = SketchMicroBatchAccumulator(capacity=capacity)
    batch = accumulate_batch(tuples, INFO, acc).batch
    truth = Counter(t.key for t in tuples)
    got = {g.key: g.count for g in batch.key_groups}
    assert got == dict(truth)
