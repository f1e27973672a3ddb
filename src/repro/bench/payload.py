"""A query whose run-invariant slice is deliberately heavy to pickle.

The parallel backend's worker-resident :class:`~repro.engine.executors.RunContext`
exists to stop re-pickling the run-invariant slice of every task — the
query and whatever it closes over, the reduce-allocation callable, the
cost model — into every payload.  :class:`VocabWeightTable` is the
canonical kind of such state (dimension tables, stop-word lists, model
weights): a sizeable broadcast-style lookup table the query's Map
function closes over.  The payload-accounting suite uses it to show
per-task payload bytes do not depend on the table's size.
"""

from __future__ import annotations

import zlib
from typing import Any

from ..queries.base import Query, SumAggregator, WindowSpec

__all__ = ["VocabWeightTable", "broadcast_wordcount_query"]


class VocabWeightTable:
    """Broadcast-style lookup table: key rank -> small integer weight.

    Module-level and deterministic (weights derive from ``crc32`` of the
    key), so it pickles to worker processes and yields identical
    contributions under any backend.  Deliberately heavy to pickle — one
    dict entry per vocabulary rank — because its job is to *be* the
    run-invariant state that must not ride in per-task payloads.
    """

    def __init__(self, vocab_size: int) -> None:
        self.weights = {
            rank: zlib.crc32(repr(rank).encode()) % 5 + 1
            for rank in range(vocab_size)
        }

    def __call__(self, key: Any, value: Any) -> int:
        return self.weights.get(key, 1)


def broadcast_wordcount_query(
    window_length: float,
    vocab_size: int,
    *,
    name: str = "wordcount-broadcast",
) -> Query:
    """A weighted WordCount whose Map function closes over a big table."""
    return Query(
        name=name,
        aggregator=SumAggregator(),
        window=WindowSpec(length=window_length, slide=window_length / 10),
        map_fn=VocabWeightTable(vocab_size),
    )
