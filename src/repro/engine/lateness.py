"""Late-tuple handling: the bounded-delay assumption made operational.

Section 2.1 assumes "the delay between the timestamp of a tuple and its
ingestion time cannot exceed a maximum delay", and Section 8 clarifies
the guarantee: "a maximum delay (i.e., a small percentage of the batch
interval) can be defined to all delayed tuples from the source to be
included in the correct batch.  Cases where the data tuples are
expected to be delayed more than the batch-interval are to be handled
outside of Prompt's execution engine, e.g., via revision tuples."

The monitor enforces exactly that contract at the receiver: a tuple
whose source timestamp lags the current batch's start by at most
``max_delay`` is *late but accepted* (coarse-grained ordering — it
counts toward the batch that ingests it); anything older is overdue and
is dropped (and counted), to be compensated outside the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from typing import Sequence

import numpy as np

from ..core.batch import BatchInfo
from ..core.tuples import StreamTuple

__all__ = ["LatenessConfig", "LatenessMonitor"]

_GET_TS = attrgetter("ts")


@dataclass(frozen=True, slots=True)
class LatenessConfig:
    """The source-to-ingestion delay contract."""

    #: maximum tolerated (timestamp -> batch start) lag, in seconds;
    #: the paper suggests a small fraction of the batch interval
    max_delay: float
    #: drop tuples beyond the contract (True, the paper's reading) or
    #: accept them anyway while still counting them (False — useful for
    #: measuring how much revision-tuple traffic a source would cause)
    drop_overdue: bool = True

    def __post_init__(self) -> None:
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")


class LatenessMonitor:
    """Classifies ingested tuples against the delay contract."""

    def __init__(self, config: LatenessConfig) -> None:
        self.config = config
        self.on_time = 0
        self.late_accepted = 0
        self.overdue = 0

    @property
    def total(self) -> int:
        return self.on_time + self.late_accepted + self.overdue

    def admit(
        self, tuples: Sequence[StreamTuple], info: BatchInfo
    ) -> list[StreamTuple]:
        """Filter one batch's ingested tuples per the contract.

        A tuple is *on time* if its timestamp falls at/after the batch
        start, *late* if it lags by at most ``max_delay`` (accepted into
        this batch — coarse-grained ordering), *overdue* beyond that.
        """
        ts = np.fromiter(map(_GET_TS, tuples), dtype=np.float64, count=len(tuples))
        on_time = ts >= info.t_start
        kept = on_time | (ts >= info.t_start - self.config.max_delay)
        del ts  # freed before the admitted list is built: peak RSS
        on, admitted = int(on_time.sum()), int(kept.sum())
        self.on_time += on
        self.late_accepted += admitted - on
        self.overdue += len(tuples) - admitted
        if admitted == len(tuples) or not self.config.drop_overdue:
            return list(tuples)
        return list(compress(tuples, kept))

    def drop_rate(self) -> float:
        """Fraction of ingested tuples that violated the contract."""
        total = self.total
        return self.overdue / total if total else 0.0
