"""Sketch-ordered accumulation: heavy-head ordering, conservation."""

from __future__ import annotations

import pytest

from repro.core.batch import BatchInfo
from repro.core.kernels import accumulate_batch
from repro.core.sketch_accumulator import SketchMicroBatchAccumulator
from repro.core.tuples import StreamTuple

from ..conftest import make_tuples, zipfish_freqs

INFO = BatchInfo(0, 0.0, 1.0)


def _fill(acc, freqs, **kw):
    return accumulate_batch(make_tuples(freqs, **kw), INFO, acc)


def test_rejects_bad_capacity_and_interval():
    with pytest.raises(ValueError):
        SketchMicroBatchAccumulator(0)
    with pytest.raises(ValueError):
        accumulate_batch([], BatchInfo(0, 1.0, 1.0), SketchMicroBatchAccumulator())


def test_all_tuples_preserved():
    acc = SketchMicroBatchAccumulator(capacity=4)
    freqs = zipfish_freqs(30, 500)
    batch = _fill(acc, freqs, shuffle_seed=3)
    assert batch.tuple_count == sum(freqs.values())
    assert batch.key_count == 30
    assert set(batch.keys) == set(freqs)
    for key, count in zip(batch.keys, batch.counts.tolist()):
        assert count == freqs[key]


def test_heavy_head_is_ordered():
    acc = SketchMicroBatchAccumulator(capacity=8)
    batch = _fill(acc, zipfish_freqs(40, 1000), shuffle_seed=5)
    sizes = batch.sizes[:4].tolist()
    assert sizes == sorted(sizes, reverse=True)
    assert batch.keys[0] == "k0"  # the hottest key leads


def test_small_capacity_still_total():
    acc = SketchMicroBatchAccumulator(capacity=1)
    batch = _fill(acc, {"a": 5, "b": 3, "c": 1}, shuffle_seed=1)
    assert batch.tuple_count == 9
    assert batch.key_count == 3


def test_finalize_resets():
    """Each interval starts from an empty sketch: nothing carries over."""
    acc = SketchMicroBatchAccumulator()
    _fill(acc, {"a": 3})
    batch = _fill(acc, {"b": 2})
    assert batch.keys == ["b"]
    assert batch.tracked.tolist() == [2]


def test_tracked_counts_upper_bound_exact():
    acc = SketchMicroBatchAccumulator(capacity=4)
    freqs = zipfish_freqs(20, 400)
    batch = _fill(acc, freqs, shuffle_seed=9)
    assert (batch.tracked >= 0).all()
    # head estimates never undercount the true size
    assert (batch.tracked[:2] >= batch.counts[:2]).all()


def test_weight_tracked():
    acc = SketchMicroBatchAccumulator()
    batch = accumulate_batch([StreamTuple(ts=0.0, key="a", weight=4)], INFO, acc)
    assert batch.total_weight == 4
