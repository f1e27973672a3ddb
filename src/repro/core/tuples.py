"""Stream tuple and key-fragment data model.

The paper (Section 2.1) defines the input stream ``S`` as an infinite
sequence of tuples ``t = (ts, k, v)``: a source-assigned timestamp, a
partitioning key, and a value payload.  Keys are not unique; tuples that
share a key form a *key fragment* when co-located in one data block
(Section 3.3).

This module provides the immutable tuple record used throughout the
repository plus light-weight helpers for grouping tuples by key.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Sequence

Key = Hashable


@dataclass(frozen=True, slots=True)
class StreamTuple:
    """A single stream record ``(ts, key, value)``.

    ``weight`` is the tuple's size in abstract cost units.  The paper
    assumes unit-size tuples "without loss of granularity" (Section 4.2)
    but notes the formulation extends to variable sizes; we carry the
    weight so that extension is exercised by tests.
    """

    ts: float
    key: Key
    value: Any = None
    weight: int = 1

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"tuple weight must be positive, got {self.weight}")


@dataclass(slots=True)
class KeyGroup:
    """All tuples of one key within a micro-batch, with its exact count.

    Produced by the accumulator's final traversal
    (``SortedList<k, count, tupleList>`` in Algorithm 1) and consumed by
    the batch partitioner (Algorithm 2).

    ``tracked_count`` is the possibly-stale frequency recorded in the
    CountTree (the quasi-sorted order is based on it); ``size`` is the
    exact total weight from the HTable chain.
    """

    key: Key
    tuples: list[StreamTuple] = field(default_factory=list)
    tracked_count: int = 0

    @property
    def size(self) -> int:
        """Exact total weight of the group's tuples."""
        return sum(t.weight for t in self.tuples)

    @property
    def count(self) -> int:
        """Exact number of tuples in the group."""
        return len(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)


def group_by_key(tuples: Iterable[StreamTuple]) -> dict[Key, list[StreamTuple]]:
    """Group tuples by key preserving arrival order within each key."""
    groups: dict[Key, list[StreamTuple]] = defaultdict(list)
    for t in tuples:
        groups[t.key].append(t)
    return dict(groups)


def total_weight(tuples: Iterable[StreamTuple]) -> int:
    """Sum of tuple weights."""
    return sum(t.weight for t in tuples)


def sorted_key_groups(
    tuples: Iterable[StreamTuple], *, descending: bool = True
) -> list[KeyGroup]:
    """Exactly-sorted key groups (the *post-sort* ablation baseline).

    This is what a system without frequency-aware buffering must do at
    the heartbeat: a dedicated sorting step over all keys (Figure 14a
    compares Prompt against this).
    """
    groups = group_by_key(tuples)
    out = [
        KeyGroup(key=k, tuples=v, tracked_count=len(v)) for k, v in groups.items()
    ]
    out.sort(key=lambda g: (g.size, _order_token(g.key)), reverse=descending)
    return out


def _order_token(key: Key) -> str:
    """Stable, type-agnostic tiebreak token for ordering mixed key types."""
    return f"{type(key).__name__}:{key!r}"


def _order_tokens(keys: Sequence[Key]) -> list[str]:
    """Strings that order ``keys`` exactly as :func:`_order_token` would.

    Keys of a single type share the token's type prefix, so their bare
    reprs already compare the same way — one C-level ``map`` instead of
    a formatted string per key.
    """
    if len(set(map(type, keys))) == 1:
        return list(map(repr, keys))
    return list(map(_order_token, keys))
