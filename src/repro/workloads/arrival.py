"""Arrival processes: deterministic, integrable tuple-rate profiles.

The throughput experiments stress partitioners with *variable* rates —
"sinusoidal changes to the input data rate ... simulates variable
spikes in the workload" (Section 7.2) — and the elasticity experiment
ramps the rate up and down (Figure 12).  An arrival process maps
simulated time to an instantaneous rate and produces, for any interval,
the tuple count (the integral of the rate, with the fractional part
carried across calls so long runs lose nothing) and the tuple
timestamps (inverse-CDF placed, so tuples bunch where the rate peaks —
exactly what breaks time-based partitioning).
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np

__all__ = [
    "ArrivalProcess",
    "ConstantRate",
    "SinusoidalRate",
    "RampRate",
    "PiecewiseRate",
]


def _check_non_negative(name: str, value: float) -> None:
    """Reject a negative, NaN or infinite rate parameter, naming it.

    ``value < 0`` alone is false for NaN, which would slip through and
    surface later as a degenerate or crashing stream.
    """
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


class ArrivalProcess(abc.ABC):
    """A deterministic time-varying arrival-rate profile."""

    #: sub-steps used for numeric integration / inverse-CDF placement
    _GRID = 64

    def __init__(self) -> None:
        self._carry = 0.0

    @abc.abstractmethod
    def rate(self, t: float) -> float:
        """Instantaneous arrival rate (tuples/second) at time ``t``."""

    def reset(self) -> None:
        """Forget the fractional-count carry (start of a fresh run)."""
        self._carry = 0.0

    # ------------------------------------------------------------------
    def mean_rate(self, t0: float, t1: float) -> float:
        """Average rate over ``[t0, t1)`` by numeric integration."""
        if t1 <= t0:
            return 0.0
        grid = np.linspace(t0, t1, self._GRID + 1)
        rates = np.array([self.rate(float(t)) for t in grid])
        return float(np.trapezoid(rates, grid) / (t1 - t0))

    def count_between(self, t0: float, t1: float) -> int:
        """Tuples arriving in ``[t0, t1)``; fractional remainder carries over."""
        expected = self.mean_rate(t0, t1) * (t1 - t0) + self._carry
        count = int(expected)
        self._carry = expected - count
        return max(0, count)

    def timestamps(self, t0: float, t1: float, count: int) -> np.ndarray:
        """``count`` timestamps in ``[t0, t1)`` spaced by the rate profile.

        Uses the inverse of the cumulative rate so that denser rate
        regions receive proportionally more tuples.  Timestamps are
        strictly within the interval and non-decreasing.
        """
        if count <= 0:
            return np.empty(0)
        if t1 <= t0:
            return np.full(count, t0)
        grid = np.linspace(t0, t1, self._GRID + 1)
        rates = np.clip([self.rate(float(t)) for t in grid], 0.0, None)
        cumulative = np.concatenate(
            ([0.0], np.cumsum((rates[1:] + rates[:-1]) / 2 * np.diff(grid)))
        )
        total = cumulative[-1]
        if total <= 0:
            # Degenerate: zero rate everywhere but a forced count — spread evenly.
            return t0 + (np.arange(count) + 0.5) * (t1 - t0) / count
        targets = (np.arange(count) + 0.5) / count * total
        ts = np.interp(targets, cumulative, grid)
        return np.clip(ts, t0, np.nextafter(t1, t0))


class ConstantRate(ArrivalProcess):
    """Fixed arrival rate."""

    def __init__(self, rate: float) -> None:
        super().__init__()
        _check_non_negative("rate", rate)
        self._rate = rate

    def rate(self, t: float) -> float:
        return self._rate


class SinusoidalRate(ArrivalProcess):
    """``mean + amplitude * sin(2*pi*t/period + phase)``, floored at 0."""

    def __init__(
        self,
        mean: float,
        amplitude: float,
        period: float,
        phase: float = 0.0,
    ) -> None:
        super().__init__()
        _check_non_negative("mean", mean)
        _check_non_negative("amplitude", amplitude)
        if not (math.isfinite(period) and period > 0):
            raise ValueError(f"period must be finite and positive, got {period!r}")
        self.mean = mean
        self.amplitude = amplitude
        self.period = period
        self.phase = phase

    def rate(self, t: float) -> float:
        value = self.mean + self.amplitude * math.sin(
            2 * math.pi * t / self.period + self.phase
        )
        return max(0.0, value)


class RampRate(ArrivalProcess):
    """Linear ramp from ``start_rate`` to ``end_rate`` over ``[t0, t1]``.

    Flat before and after the ramp — the workload shape of the
    elasticity experiment (Figure 12: grow, then shrink).
    """

    def __init__(
        self, start_rate: float, end_rate: float, t0: float, t1: float
    ) -> None:
        super().__init__()
        _check_non_negative("start_rate", start_rate)
        _check_non_negative("end_rate", end_rate)
        if t1 <= t0:
            raise ValueError("ramp needs t1 > t0")
        self.start_rate = start_rate
        self.end_rate = end_rate
        self.t0 = t0
        self.t1 = t1

    def rate(self, t: float) -> float:
        if t <= self.t0:
            return self.start_rate
        if t >= self.t1:
            return self.end_rate
        frac = (t - self.t0) / (self.t1 - self.t0)
        return self.start_rate + frac * (self.end_rate - self.start_rate)


class PiecewiseRate(ArrivalProcess):
    """Step function over ``[(t_start, rate), ...]`` breakpoints."""

    def __init__(self, steps: Sequence[tuple[float, float]]) -> None:
        super().__init__()
        if not steps:
            raise ValueError("steps must be non-empty")
        ordered = sorted(steps)
        for _, rate in ordered:
            _check_non_negative("step rate", rate)
        self.steps = ordered

    def rate(self, t: float) -> float:
        current = self.steps[0][1] if t >= self.steps[0][0] else 0.0
        for t_start, rate in self.steps:
            if t >= t_start:
                current = rate
            else:
                break
        return current
