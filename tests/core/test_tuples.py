"""Tuple model: StreamTuple, grouping, and the post-sort reference order."""

from __future__ import annotations

import pytest

from repro.core.batch import BatchInfo
from repro.core.kernels import accumulate_batch
from repro.core.tuples import StreamTuple, group_by_key

from ..oracle.prompt_spec import sorted_key_groups


def _post_sort(tuples):
    """The kernel's post-sort batch: ``accumulate_batch`` with no accumulator."""
    return accumulate_batch(tuples, BatchInfo(0, 0.0, 1.0), None)


def test_stream_tuple_fields():
    t = StreamTuple(ts=1.5, key="a", value=42, weight=2)
    assert (t.ts, t.key, t.value, t.weight) == (1.5, "a", 42, 2)


def test_stream_tuple_is_immutable():
    t = StreamTuple(ts=0.0, key="a")
    with pytest.raises(AttributeError):
        t.key = "b"


def test_stream_tuple_rejects_non_positive_weight():
    with pytest.raises(ValueError):
        StreamTuple(ts=0.0, key="a", weight=0)
    with pytest.raises(ValueError):
        StreamTuple(ts=0.0, key="a", weight=-3)


def test_default_weight_is_one():
    assert StreamTuple(ts=0.0, key="a").weight == 1


def test_group_by_key_preserves_order_within_key():
    tuples = [
        StreamTuple(ts=0.0, key="a", value=1),
        StreamTuple(ts=0.1, key="b", value=2),
        StreamTuple(ts=0.2, key="a", value=3),
    ]
    groups = group_by_key(tuples)
    assert [t.value for t in groups["a"]] == [1, 3]
    assert [t.value for t in groups["b"]] == [2]


def test_sorted_key_groups_descending():
    tuples = (
        [StreamTuple(ts=0.0, key="small")]
        + [StreamTuple(ts=0.0, key="big") for _ in range(5)]
        + [StreamTuple(ts=0.0, key="mid") for _ in range(3)]
    )
    groups = sorted_key_groups(tuples)
    assert [g.key for g in groups] == ["big", "mid", "small"]
    assert [g.size for g in groups] == [5, 3, 1]
    batch = _post_sort(tuples)
    assert batch.keys == ["big", "mid", "small"]
    assert batch.sizes.tolist() == batch.tracked.tolist() == [5, 3, 1]
    assert batch.tree_updates == 0


def test_sorted_key_groups_ascending():
    tuples = [StreamTuple(ts=0.0, key="a")] + [
        StreamTuple(ts=0.0, key="b") for _ in range(2)
    ]
    groups = sorted_key_groups(tuples, descending=False)
    assert [g.key for g in groups] == ["a", "b"]


def test_sorted_key_groups_handles_mixed_key_types():
    tuples = [
        StreamTuple(ts=0.0, key=k, weight=w)
        for k, w in ((1, 2), ("1", 1), (2.5, 2), ("b", 1), ((1, 2), 2), (1, 1))
    ]
    groups = sorted_key_groups(tuples)
    assert len(groups) == 5
    # the kernel's post-sort order is the reference order: weights
    # first, then the order token across key types
    batch = _post_sort(tuples)
    assert batch.keys == [g.key for g in groups]
    assert batch.sizes.tolist() == [g.size for g in groups]
    assert batch.counts.tolist() == [len(g.tuples) for g in groups]
