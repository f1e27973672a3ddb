"""WordCount: sliding-window word counting (Section 7.1).

"WordCount performs a sliding window count over 30 seconds" — each
tuple is one word occurrence (the word is the partitioning key), the
Map stage emits ``(word, 1)`` and the Reduce stage sums.
"""

from __future__ import annotations

from .base import CountAggregator, Query, WindowSpec, count_one

__all__ = ["wordcount_query", "count_one"]


def wordcount_query(
    window_length: float = 30.0, slide: float | None = None
) -> Query:
    """Build the WordCount query.

    ``slide`` defaults to the window length's natural micro-batch pace;
    the engine slides the window one batch at a time regardless, so the
    spec mostly documents intent.
    """
    return Query(
        name="wordcount",
        aggregator=CountAggregator(),
        window=WindowSpec(length=window_length, slide=slide or window_length / 10),
        map_fn=count_one,
    )
