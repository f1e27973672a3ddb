"""Arrival processes: rates, integrated counts, timestamp placement."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.workloads.arrival import (
    ConstantRate,
    PiecewiseRate,
    RampRate,
    SinusoidalRate,
)


def test_constant_rate_counts():
    arr = ConstantRate(100.0)
    assert arr.count_between(0.0, 1.0) == 100
    assert arr.count_between(1.0, 3.0) == 200


def test_constant_rate_validation():
    with pytest.raises(ValueError):
        ConstantRate(-1.0)


def test_fractional_carry_preserves_totals():
    arr = ConstantRate(10.5)
    total = sum(arr.count_between(i * 1.0, (i + 1) * 1.0) for i in range(10))
    assert total == 105


def test_reset_clears_carry():
    arr = ConstantRate(10.5)
    arr.count_between(0.0, 1.0)
    arr.reset()
    assert arr._carry == 0.0


def test_timestamps_ordered_and_bounded():
    arr = ConstantRate(50.0)
    ts = arr.timestamps(2.0, 3.0, 50)
    assert len(ts) == 50
    assert np.all(np.diff(ts) >= 0)
    assert ts[0] >= 2.0
    assert ts[-1] < 3.0


def test_timestamps_zero_count():
    assert len(ConstantRate(10.0).timestamps(0.0, 1.0, 0)) == 0


def test_sinusoidal_rate_shape():
    arr = SinusoidalRate(mean=100.0, amplitude=50.0, period=4.0)
    assert arr.rate(0.0) == pytest.approx(100.0)
    assert arr.rate(1.0) == pytest.approx(150.0)
    assert arr.rate(3.0) == pytest.approx(50.0)


def test_sinusoidal_rate_floors_at_zero():
    arr = SinusoidalRate(mean=10.0, amplitude=100.0, period=4.0)
    assert arr.rate(3.0) == 0.0


def test_sinusoidal_validation():
    with pytest.raises(ValueError):
        SinusoidalRate(mean=-1, amplitude=1, period=1)
    with pytest.raises(ValueError):
        SinusoidalRate(mean=1, amplitude=-1, period=1)
    with pytest.raises(ValueError):
        SinusoidalRate(mean=1, amplitude=1, period=0)


def test_sinusoidal_timestamps_cluster_at_peak():
    arr = SinusoidalRate(mean=100.0, amplitude=90.0, period=4.0)
    ts = arr.timestamps(0.0, 4.0, 400)
    # peak at t=1 (rate 190), trough at t=3 (rate 10)
    near_peak = np.sum((ts > 0.5) & (ts < 1.5))
    near_trough = np.sum((ts > 2.5) & (ts < 3.5))
    assert near_peak > 3 * near_trough


def test_ramp_rate_profile():
    arr = RampRate(10.0, 110.0, 1.0, 2.0)
    assert arr.rate(0.5) == 10.0
    assert arr.rate(1.5) == pytest.approx(60.0)
    assert arr.rate(5.0) == 110.0


def test_ramp_validation():
    with pytest.raises(ValueError):
        RampRate(-1, 10, 0, 1)
    with pytest.raises(ValueError):
        RampRate(1, 10, 1, 1)


def test_piecewise_rate():
    arr = PiecewiseRate([(0.0, 10.0), (5.0, 100.0)])
    assert arr.rate(1.0) == 10.0
    assert arr.rate(5.0) == 100.0
    assert arr.rate(-1.0) == 0.0


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseRate([])
    with pytest.raises(ValueError):
        PiecewiseRate([(0.0, -5.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field, make",
    [
        ("rate", ConstantRate),
        ("mean", lambda x: SinusoidalRate(mean=x, amplitude=1.0, period=1.0)),
        ("amplitude", lambda x: SinusoidalRate(mean=1.0, amplitude=x, period=1.0)),
        ("period", lambda x: SinusoidalRate(mean=1.0, amplitude=1.0, period=x)),
        ("start_rate", lambda x: RampRate(x, 1.0, 0.0, 1.0)),
        ("end_rate", lambda x: RampRate(1.0, x, 0.0, 1.0)),
        ("step rate", lambda x: PiecewiseRate([(0.0, 1.0), (1.0, x)])),
    ],
)
def test_rejects_non_finite_parameters(field, make, bad):
    # ``x < 0`` is false for NaN: a NaN rate used to be accepted and
    # only failed later, converting the NaN count to an int.
    with pytest.raises(ValueError, match=field):
        make(bad)


def test_integrated_count_matches_mean_rate():
    arr = SinusoidalRate(mean=1000.0, amplitude=500.0, period=2.0)
    count = arr.count_between(0.0, 2.0)  # full period: mean holds
    assert count == pytest.approx(2000, abs=20)


def test_degenerate_zero_rate_timestamps_spread():
    arr = ConstantRate(0.0)
    ts = arr.timestamps(0.0, 1.0, 10)
    assert len(ts) == 10
    assert np.all((ts >= 0.0) & (ts < 1.0))
