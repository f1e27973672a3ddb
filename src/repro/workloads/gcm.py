"""GCM: Google Cluster Monitoring task-event stream.

Table 1: 16 GB, 600k distinct keys (job ids).  Real cluster traces are
dominated by a few enormous jobs emitting task events continuously
while most jobs are tiny — a heavy tail we model with Zipf exponent
1.2 over the job universe.  Values are ``(cpu, memory)`` normalized
resource requests in (0, 1], log-normally spread the way the public
trace's request distributions are.
"""

from __future__ import annotations

import numpy as np

from .arrival import ArrivalProcess, ConstantRate
from .source import DatasetProperties, ZipfKeyedSource

__all__ = ["gcm_source"]


def _resource_values(rng: np.random.Generator, count: int) -> list[tuple[float, float]]:
    cpu = np.minimum(1.0, rng.lognormal(mean=-3.0, sigma=1.0, size=count))
    mem = np.minimum(1.0, rng.lognormal(mean=-3.5, sigma=1.2, size=count))
    return [(float(c), float(m)) for c, m in zip(cpu, mem)]


def gcm_source(
    *,
    num_jobs: int = 15_000,
    arrival: ArrivalProcess | None = None,
    rate: float = 10_000.0,
    job_skew: float = 1.2,
    seed: int = 0,
) -> ZipfKeyedSource:
    """Build the synthetic cluster-monitoring stream (key = job id)."""
    if arrival is None:
        arrival = ConstantRate(rate)
    props = DatasetProperties(
        name="GCM",
        paper_size="16GB",
        paper_cardinality="600K",
        scaled_cardinality=num_jobs,
        description="Task events with heavy-tailed job sizes; value = (cpu, mem).",
    )
    return ZipfKeyedSource(
        name="gcm",
        arrival=arrival,
        num_keys=num_jobs,
        exponent=job_skew,
        seed=seed,
        value_sampler=_resource_values,
        dataset=props,
    )
