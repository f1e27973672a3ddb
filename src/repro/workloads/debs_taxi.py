"""DEBS 2015 Grand Challenge: New York taxi-trip stream.

Table 1: 32 GB, 8M distinct keys (taxi medallion x shift combinations).
"Data are reported at the end of each trip, i.e., upon arriving in the
order of the drop-off timestamps" — our arrival timestamps model the
drop-off times directly.  Trip values are ``(fare, distance)`` pairs:
distance exponentially distributed around a 2.5-mile mean, fare a base
charge plus a per-mile component (the standard NYC structure), both
rounded to cents.  Taxi activity is mildly skewed (busy cabs complete
more trips): Zipf with exponent 0.8.
"""

from __future__ import annotations

import numpy as np

from .arrival import ArrivalProcess, ConstantRate
from .source import DatasetProperties, ZipfKeyedSource

__all__ = ["debs_taxi_source"]

_BASE_FARE = 2.50
_PER_MILE = 2.50
_MEAN_DISTANCE_MILES = 2.5


def _trip_values(rng: np.random.Generator, count: int) -> list[tuple[float, float]]:
    distances = rng.exponential(_MEAN_DISTANCE_MILES, size=count)
    fares = _BASE_FARE + _PER_MILE * distances
    return [
        (round(float(f), 2), round(float(d), 2))
        for f, d in zip(fares, distances)
    ]


def debs_taxi_source(
    *,
    num_taxis: int = 10_000,
    arrival: ArrivalProcess | None = None,
    rate: float = 10_000.0,
    activity_skew: float = 0.8,
    seed: int = 0,
) -> ZipfKeyedSource:
    """Build the synthetic taxi-trip stream (key = medallion id)."""
    if arrival is None:
        arrival = ConstantRate(rate)
    props = DatasetProperties(
        name="DEBS",
        paper_size="32GB",
        paper_cardinality="8M",
        scaled_cardinality=num_taxis,
        description="Taxi trips in drop-off order; value = (fare, distance).",
    )
    return ZipfKeyedSource(
        name="debs-taxi",
        arrival=arrival,
        num_keys=num_taxis,
        exponent=activity_skew,
        seed=seed,
        value_sampler=_trip_values,
        dataset=props,
    )
