"""TPC-H LineItem as a stream of recent orders.

Table 1: 100 GB, 1M distinct keys (part ids).  TPC-H's lineitem is
generated with *uniform* part references — the paper uses it as the
low-skew counterpoint to Tweets/SynD (visible in Figure 10b/d, where
even hashing balances reasonably).  Values follow the Q1/Q6-relevant
columns: ``(quantity, extendedprice, discount)`` with TPC-H's ranges —
quantity uniform in [1, 50], discount uniform in [0, 0.10], price
proportional to quantity.
"""

from __future__ import annotations

import numpy as np

from .arrival import ArrivalProcess, ConstantRate
from .source import DatasetProperties, ZipfKeyedSource

__all__ = ["tpch_lineitem_source"]


def _lineitem_values(
    rng: np.random.Generator, count: int
) -> list[tuple[int, float, float]]:
    quantity = rng.integers(1, 51, size=count)
    unit_price = rng.uniform(900.0, 1100.0, size=count)
    discount = np.round(rng.uniform(0.0, 0.10, size=count), 2)
    return [
        (int(q), round(float(q * p), 2), float(d))
        for q, p, d in zip(quantity, unit_price, discount)
    ]


def tpch_lineitem_source(
    *,
    num_parts: int = 20_000,
    arrival: ArrivalProcess | None = None,
    rate: float = 10_000.0,
    seed: int = 0,
) -> ZipfKeyedSource:
    """Build the streaming LineItem source (key = part id, near-uniform)."""
    if arrival is None:
        arrival = ConstantRate(rate)
    props = DatasetProperties(
        name="TPC-H",
        paper_size="100GB",
        paper_cardinality="1M",
        scaled_cardinality=num_parts,
        description="LineItem rows; near-uniform part keys, Q1/Q6 columns.",
    )
    return ZipfKeyedSource(
        name="tpch-lineitem",
        arrival=arrival,
        num_keys=num_parts,
        # A whisper of skew: dbgen part popularity is uniform, but real
        # order streams repeat popular parts slightly.
        exponent=0.1,
        seed=seed,
        value_sampler=_lineitem_values,
        dataset=props,
    )
