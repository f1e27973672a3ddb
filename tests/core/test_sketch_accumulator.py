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
    return accumulate_batch(make_tuples(freqs, **kw), INFO, acc).batch


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
    assert {g.key for g in batch.key_groups} == set(freqs)
    for g in batch.key_groups:
        assert g.count == freqs[g.key]


def test_heavy_head_is_ordered():
    acc = SketchMicroBatchAccumulator(capacity=8)
    batch = _fill(acc, zipfish_freqs(40, 1000), shuffle_seed=5)
    head = batch.key_groups[:4]
    sizes = [g.size for g in head]
    assert sizes == sorted(sizes, reverse=True)
    assert head[0].key == "k0"  # the hottest key leads


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
    assert {g.key for g in batch.key_groups} == {"b"}
    assert [(g.key, g.tracked_count) for g in batch.key_groups] == [("b", 2)]


def test_tracked_counts_upper_bound_exact():
    acc = SketchMicroBatchAccumulator(capacity=4)
    freqs = zipfish_freqs(20, 400)
    batch = _fill(acc, freqs, shuffle_seed=9)
    for g in batch.key_groups:
        assert g.tracked_count >= 0
    # head estimates never undercount the true size
    for g in batch.key_groups[:2]:
        assert g.tracked_count >= g.count


def test_weight_tracked():
    acc = SketchMicroBatchAccumulator()
    batch = accumulate_batch([StreamTuple(ts=0.0, key="a", weight=4)], INFO, acc).batch
    assert batch.total_weight == 4
