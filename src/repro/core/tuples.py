"""Stream tuple and key-fragment data model.

The paper (Section 2.1) defines the input stream ``S`` as an infinite
sequence of tuples ``t = (ts, k, v)``: a source-assigned timestamp, a
partitioning key, and a value payload.  Keys are not unique; tuples that
share a key form a *key fragment* when co-located in one data block
(Section 3.3).

This module provides the immutable tuple record used throughout the
repository, a helper grouping tuples by key, and the type-agnostic order
tokens that break ties between keys.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Sequence

import numpy as np

Key = Hashable

#: 10**0 .. 10**19, the digit-count thresholds of a uint64 magnitude
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)


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


def group_by_key(tuples: Iterable[StreamTuple]) -> dict[Key, list[StreamTuple]]:
    """Group tuples by key preserving arrival order within each key."""
    groups: dict[Key, list[StreamTuple]] = defaultdict(list)
    for t in tuples:
        groups[t.key].append(t)
    return dict(groups)


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


def token_order(keys: Sequence[Key]) -> np.ndarray:
    """Indexes of ``keys`` in ascending :func:`_order_tokens` order.

    Keys that are all exactly ``int`` of at most 17 digits have bare
    decimal reprs as tokens, ordered here in numpy: negatives first
    (``-`` sorts before the digits), then each magnitude's digits scaled
    to the widest key's width, a tie (one digit string is the other's
    prefix padded with zeros) to the shorter; (sign, scaled digits,
    digit count) packs into one uint64 for a single argsort.  Other keys
    sort tokens.
    """
    if keys and set(map(type, keys)) == {int}:
        try:
            ints = np.fromiter(keys, dtype=np.int64, count=len(keys))
        except OverflowError:
            ints = None
        if ints is not None and ints.min() > np.iinfo(np.int64).min:
            magnitude = np.abs(ints).astype(np.uint64)
            digits = np.searchsorted(_POW10, magnitude, side="right")
            width = int(digits.max())
            if width <= 17:
                scaled = magnitude * _POW10[width - digits]
                packed = scaled * np.uint64(20) + digits.astype(np.uint64)
                return np.argsort(packed + (ints >= 0) * np.uint64(20 * 10**width))
    tokens = _order_tokens(keys)
    return np.array(sorted(range(len(keys)), key=tokens.__getitem__), dtype=np.intp)
