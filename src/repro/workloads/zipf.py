"""Bounded Zipf and Zipf-Mandelbrot key samplers.

SynD draws keys "from the Zipf distribution with exponent values
z in {0.1, ..., 2.0} and distinct keys up to 1e7" (Section 7.1).
``numpy.random.zipf`` is unbounded and undefined for z <= 1, so we
implement the bounded form directly: ``P(i) ∝ 1 / (i + q)^z`` over a
fixed universe of ``K`` ranks (``q=0`` gives plain Zipf; ``q>0`` the
Zipf-Mandelbrot variant used for English word frequencies).

Sampling uses inverse-CDF over the precomputed cumulative weights —
O(K) setup once, O(log K) per draw, fully vectorized.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ZipfSampler"]


class ZipfSampler:
    """Vectorized bounded Zipf(-Mandelbrot) sampler over ranks [0, K)."""

    def __init__(
        self,
        num_keys: int,
        exponent: float,
        *,
        shift: float = 0.0,
        seed: int = 0,
    ) -> None:
        if num_keys < 1:
            raise ValueError(f"num_keys must be >= 1, got {num_keys}")
        # ``x < 0`` is false for NaN, so test finiteness explicitly.
        if not (math.isfinite(exponent) and exponent >= 0):
            raise ValueError(f"exponent must be finite and >= 0, got {exponent!r}")
        if not (math.isfinite(shift) and shift >= 0):
            raise ValueError(f"shift must be finite and >= 0, got {shift!r}")
        self.num_keys = num_keys
        self.exponent = exponent
        self.shift = shift
        self._rng = np.random.default_rng(seed)
        ranks = np.arange(1, num_keys + 1, dtype=np.float64)
        weights = 1.0 / np.power(ranks + shift, exponent)
        self._probabilities = weights / weights.sum()
        self._cdf = np.cumsum(self._probabilities)

    @property
    def probabilities(self) -> np.ndarray:
        """The rank probability vector (rank 0 is the hottest key)."""
        return self._probabilities

    def expected_top_share(self, top: int = 1) -> float:
        """Probability mass of the ``top`` hottest ranks (skew gauge)."""
        if top < 1:
            raise ValueError("top must be >= 1")
        return float(self._probabilities[: min(top, self.num_keys)].sum())

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` ranks (int64 array in [0, num_keys))."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return np.empty(0, dtype=np.int64)
        u = self._rng.random(count)
        return np.searchsorted(self._cdf, u, side="left").astype(np.int64)

    def reseed(self, seed: int) -> None:
        """Reset the random stream (fresh run, same distribution)."""
        self._rng = np.random.default_rng(seed)
