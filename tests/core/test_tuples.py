"""Tuple model: StreamTuple, KeyGroup, grouping helpers."""

from __future__ import annotations

import pytest

from repro.core.tuples import (
    KeyGroup,
    StreamTuple,
    group_by_key,
    sorted_key_groups,
    total_weight,
)


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


def test_total_weight():
    tuples = [StreamTuple(ts=0.0, key=k, weight=w) for k, w in [("a", 1), ("b", 4)]]
    assert total_weight(tuples) == 5


def test_key_group_size_and_count():
    g = KeyGroup(
        key="a",
        tuples=[StreamTuple(ts=0.0, key="a", weight=2) for _ in range(3)],
        tracked_count=2,
    )
    assert g.size == 6
    assert g.count == 3
    assert len(g) == 3
    assert g.tracked_count == 2


def test_sorted_key_groups_descending():
    tuples = (
        [StreamTuple(ts=0.0, key="small")]
        + [StreamTuple(ts=0.0, key="big") for _ in range(5)]
        + [StreamTuple(ts=0.0, key="mid") for _ in range(3)]
    )
    groups = sorted_key_groups(tuples)
    assert [g.key for g in groups] == ["big", "mid", "small"]
    assert [g.size for g in groups] == [5, 3, 1]


def test_sorted_key_groups_ascending():
    tuples = [StreamTuple(ts=0.0, key="a")] + [
        StreamTuple(ts=0.0, key="b") for _ in range(2)
    ]
    groups = sorted_key_groups(tuples, descending=False)
    assert [g.key for g in groups] == ["a", "b"]


def test_sorted_key_groups_handles_mixed_key_types():
    tuples = [StreamTuple(ts=0.0, key=1), StreamTuple(ts=0.0, key="1")]
    groups = sorted_key_groups(tuples)
    assert len(groups) == 2
