"""The benchmark's stream source: a materialised input served by bisect.

The engine only ever sees this object through the public
``StreamSource`` interface, so everything the benchmark needs to know
about a run from the outside is observed here: every
``tuples_between`` call is stamped with ``perf_counter()`` and the
slice bounds it served.  From those stamps come the per-batch walls,
``setup_s``, the reference's per-batch inputs and the conservation
count.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_left
from typing import NamedTuple

from repro.core.tuples import StreamTuple
from repro.workloads.source import StreamSource

__all__ = ["MaterialisedSource", "Pull"]


class Pull(NamedTuple):
    """One ``tuples_between`` call: when it happened, what it served."""

    at: float
    lo: int
    hi: int

    @property
    def count(self) -> int:
        return self.hi - self.lo


class MaterialisedSource(StreamSource):
    """Serves pre-generated tuples by their ingestion times.

    ``ingest_times`` is non-decreasing and parallel to ``tuples``; it
    equals the tuples' own timestamps for an in-order stream and
    ``ts + delay`` for a reordered one (the tuples then arrive out of
    timestamp order, as a real delayed stream does).
    """

    name = "materialised"

    def __init__(
        self, tuples: list[StreamTuple], ingest_times: list[float]
    ) -> None:
        if len(tuples) != len(ingest_times):
            raise ValueError("tuples and ingest_times must be parallel")
        self.tuples = tuples
        self.ingest_times = ingest_times
        self.pulls: list[Pull] = []
        # The generator left millions of long-lived objects behind; move
        # them out of the collector's reach so the timed runs do not pay
        # for rescanning the input on every generation-2 collection.
        gc.collect()
        gc.freeze()

    def reset(self) -> None:
        """The input is immutable, so a rewind has nothing to do."""

    def tuples_between(self, t0: float, t1: float) -> list[StreamTuple]:
        lo = bisect_left(self.ingest_times, t0)
        hi = bisect_left(self.ingest_times, t1)
        self.pulls.append(Pull(time.perf_counter(), lo, hi))
        return self.tuples[lo:hi]

    def take_pulls(self) -> list[Pull]:
        """Hand over the pulls recorded since the last call."""
        pulls, self.pulls = self.pulls, []
        return pulls
