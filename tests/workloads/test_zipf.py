"""Bounded Zipf sampler: distribution shape, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.workloads.zipf import ZipfSampler


def test_probabilities_sum_to_one():
    sampler = ZipfSampler(1000, 1.2)
    assert sampler.probabilities.sum() == pytest.approx(1.0)


def test_rank_zero_is_hottest():
    sampler = ZipfSampler(100, 1.5)
    p = sampler.probabilities
    assert np.all(np.diff(p) <= 0)


def test_zero_exponent_is_uniform():
    sampler = ZipfSampler(10, 0.0)
    assert np.allclose(sampler.probabilities, 0.1)


def test_top_share_grows_with_exponent():
    shares = [ZipfSampler(5000, z).expected_top_share(1) for z in (0.2, 1.0, 1.8)]
    assert shares[0] < shares[1] < shares[2]
    assert shares[2] > 0.3  # strong skew concentrates mass


def test_samples_in_range():
    sampler = ZipfSampler(50, 1.0, seed=1)
    ranks = sampler.sample(5000)
    assert ranks.min() >= 0
    assert ranks.max() < 50


def test_empirical_matches_theoretical():
    sampler = ZipfSampler(100, 1.0, seed=2)
    ranks = sampler.sample(100_000)
    empirical_top = np.mean(ranks == 0)
    assert empirical_top == pytest.approx(sampler.probabilities[0], rel=0.1)


def test_deterministic_given_seed():
    a = ZipfSampler(100, 1.1, seed=7).sample(100)
    b = ZipfSampler(100, 1.1, seed=7).sample(100)
    assert np.array_equal(a, b)


def test_reseed_replays_stream():
    sampler = ZipfSampler(100, 1.1, seed=7)
    first = sampler.sample(100)
    sampler.reseed(7)
    assert np.array_equal(sampler.sample(100), first)


def test_mandelbrot_shift_flattens_head():
    plain = ZipfSampler(1000, 1.1, shift=0.0)
    shifted = ZipfSampler(1000, 1.1, shift=5.0)
    assert shifted.probabilities[0] < plain.probabilities[0]


def test_sample_zero_count():
    assert len(ZipfSampler(10, 1.0).sample(0)) == 0


def test_validation():
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.0)
    with pytest.raises(ValueError):
        ZipfSampler(10, -0.5)
    with pytest.raises(ValueError):
        ZipfSampler(10, 1.0, shift=-1.0)
    with pytest.raises(ValueError):
        ZipfSampler(10, 1.0).sample(-1)
    with pytest.raises(ValueError):
        ZipfSampler(10, 1.0).expected_top_share(0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["exponent", "shift"])
def test_rejects_non_finite_parameters(field, bad):
    # ``x < 0`` is false for NaN: without an explicit check a NaN
    # exponent yielded a silently degenerate all-zeros stream.
    kwargs = {"exponent": 1.0, "shift": 0.0, field: bad}
    with pytest.raises(ValueError, match=field):
        ZipfSampler(10, **kwargs)
