"""Space-Saving sketch: guarantees and bounds."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketches import SpaceSavingSketch


def _zipf_stream(num_keys=100, total=5000, seed=1):
    rng = random.Random(seed)
    weights = [1.0 / (i + 1) for i in range(num_keys)]
    keys = rng.choices(range(num_keys), weights=weights, k=total)
    return keys


# ----------------------------------------------------------------------
# Space-Saving
# ----------------------------------------------------------------------
def test_space_saving_exact_below_capacity():
    sketch = SpaceSavingSketch(capacity=10)
    for key in ["a", "b", "a", "c", "a"]:
        sketch.add(key)
    assert sketch.estimate("a") == 3
    assert sketch.estimate("b") == 1
    assert sketch.guaranteed("a") == 3
    assert sketch.error_bound() == 0
    assert sketch.total == 5


def test_space_saving_capacity_is_bounded():
    sketch = SpaceSavingSketch(capacity=8)
    for key in _zipf_stream():
        sketch.add(key)
    assert len(sketch) <= 8


def test_space_saving_overestimates_never_underestimates():
    stream = _zipf_stream(num_keys=50, total=3000)
    truth = Counter(stream)
    sketch = SpaceSavingSketch(capacity=16)
    for key in stream:
        sketch.add(key)
    for key, estimate in sketch.items():
        assert estimate >= truth[key]
        assert sketch.guaranteed(key) <= truth[key]


def test_space_saving_error_bound_holds():
    stream = _zipf_stream(num_keys=200, total=4000)
    truth = Counter(stream)
    capacity = 32
    sketch = SpaceSavingSketch(capacity=capacity)
    for key in stream:
        sketch.add(key)
    bound = sketch.error_bound()
    assert bound <= sketch.total / capacity + 1
    for key, estimate in sketch.items():
        assert estimate - truth[key] <= bound


def test_space_saving_finds_the_heavy_hitters():
    stream = _zipf_stream(num_keys=100, total=5000)
    truth = Counter(stream)
    sketch = SpaceSavingSketch(capacity=32)
    for key in stream:
        sketch.add(key)
    hitters = dict(sketch.heavy_hitters(0.05))
    for key, count in truth.items():
        if count > 0.08 * len(stream):  # comfortably heavy
            assert key in hitters


def test_space_saving_weighted_add():
    sketch = SpaceSavingSketch(capacity=4)
    sketch.add("a", count=10)
    assert sketch.estimate("a") == 10
    assert sketch.total == 10


def test_space_saving_items_sorted_descending():
    sketch = SpaceSavingSketch(capacity=8)
    for key, n in [("a", 5), ("b", 9), ("c", 2)]:
        sketch.add(key, count=n)
    estimates = [e for _, e in sketch.items()]
    assert estimates == sorted(estimates, reverse=True)


def test_space_saving_clear():
    sketch = SpaceSavingSketch(capacity=4)
    sketch.add("a")
    sketch.clear()
    assert len(sketch) == 0
    assert sketch.total == 0


def test_space_saving_validation():
    with pytest.raises(ValueError):
        SpaceSavingSketch(0)
    sketch = SpaceSavingSketch(4)
    with pytest.raises(ValueError):
        sketch.add("a", count=0)
    with pytest.raises(ValueError):
        sketch.heavy_hitters(0.0)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@given(
    keys=st.lists(st.integers(0, 30), min_size=1, max_size=400),
    capacity=st.integers(1, 16),
)
@settings(max_examples=60, deadline=None)
def test_property_space_saving_invariants(keys, capacity):
    truth = Counter(keys)
    sketch = SpaceSavingSketch(capacity)
    for key in keys:
        sketch.add(key)
    assert len(sketch) <= capacity
    assert sketch.total == len(keys)
    for key, estimate in sketch.items():
        assert estimate >= truth[key]
