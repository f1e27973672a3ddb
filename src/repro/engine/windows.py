"""Windowed query state with incremental inverse-Reduce maintenance.

Section 2.1/Figure 3: "The query answer is computed by aggregating the
output of all batches that reside within the query window.  To avoid
redundant recalculations, the micro-batches that exit the window are
reflected incrementally onto the query answer by applying an inverse
Reduce function."  The evaluation repeats the point (Section 7):
"Inverse Reduce functions are implemented for all window queries ...
previous in-window batch results are cached in memory."

:class:`WindowedAggregator` is exactly that machinery: a ring of cached
per-batch outputs plus a running merged answer, updated in O(changed
keys) per batch instead of O(window).

An additive aggregator whose partials are all ``int`` within int64, or
all ``float``, keeps the answer as one accumulator array over an
append-only key table (a dict from key to code): ``A[codes] += values``
merges a batch and ``-=`` retracts one, the IEEE operations of the
inline ``+``/``-`` in the same order, and a zero entry is an absent
key.  A table grown past twice the keys of the answer and the newest
batch is replaced by one of just the keys the window holds, so churning
keys do not pile up over a run.

Any other aggregator or partial type (SumCount pairs, holistic
aggregators, mixed int and float, ints beyond int64, numpy scalars,
bools) runs the aggregator's dict hooks, and a partial the array cannot
hold moves the window to them for good.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, count, repeat
from typing import Any, Deque, Iterator, Mapping, Optional, Sequence

import numpy as np

from ..core.tuples import Key
from ..queries.base import Aggregator, _AdditiveAggregator
from .columns import FrozenMapping, columns_of

__all__ = ["WindowAnswer", "WindowedAggregator"]

_INT64_MAX = 2**63 - 1
#: the smallest accumulator array, and key table worth renumbering
_MIN_TABLE = 1024
_DTYPES = {int: np.int64, float: np.float64}
_NO_CODES = np.empty(0, dtype=np.intp)
#: the hooks an aggregator must inherit for the array form to stand in
_ARRAY_HOOKS = ("merge", "inverse", "merge_into", "retract_from")


class _KeyTable:
    """Codes for keys, by a dict, and keys for codes, by a list."""

    __slots__ = ("keys", "_code_of")

    def __init__(self, keys: list) -> None:
        self.keys = keys
        self._code_of = dict(zip(keys, count()))

    def encode(self, keys: Sequence[Key]) -> np.ndarray:
        """``keys``' codes; a new key takes the next free code."""
        first = len(self.keys)
        codes = np.array(list(map(self._code_of.get, keys, repeat(-1))), np.intp)
        fresh = codes < 0
        if fresh.any():
            new = list(compress(keys, fresh.tolist()))
            codes[fresh] = np.arange(first, first + len(new))
            self._code_of.update(zip(new, count(first)))
            self.keys += new
        return codes

    def find(self, key: Key) -> Optional[int]:
        return self._code_of.get(key)

    def keys_at(self, codes: np.ndarray) -> list:
        return list(map(self.keys.__getitem__, codes.tolist()))


class WindowAnswer(FrozenMapping):
    """One window answer: the codes of the present keys in a key table,
    and a frozen copy of their accumulators."""

    __slots__ = ("_table", "_codes", "_values")

    def __init__(
        self, table: _KeyTable, codes: np.ndarray, values: np.ndarray
    ) -> None:
        # a table only appends (the window renumbers into a new one): a
        # key added after this answer has a code outside ``codes``
        self._table, self._codes, self._values = table, codes, values

    def _dict(self) -> dict:
        return dict(zip(self, self._values.tolist()))

    def __getitem__(self, key: Key) -> Any:
        code = self._table.find(key)
        if code is not None:
            i = self._codes.searchsorted(code)
            if i < len(self._codes) and self._codes[i] == code:
                return self._values.item(i)
        raise KeyError(key)

    def __iter__(self) -> Iterator[Key]:
        return iter(self._table.keys_at(self._codes))

    def __len__(self) -> int:
        return len(self._codes)


class WindowedAggregator:
    """Sliding-window per-key aggregate over consecutive batch outputs."""

    def __init__(self, aggregator: Aggregator, batches_per_window: int) -> None:
        if batches_per_window < 1:
            raise ValueError(
                f"batches_per_window must be >= 1, got {batches_per_window}"
            )
        self.aggregator = aggregator
        self.batches_per_window = batches_per_window
        #: per cached batch: its output (dict form) or ``(codes, values,
        #: peak)`` (array form)
        self._cached: Deque[Any] = deque()
        self._answer: dict[Key, Any] = {}
        self._arrays = isinstance(aggregator, _AdditiveAggregator) and all(
            getattr(type(aggregator), hook) is getattr(_AdditiveAggregator, hook)
            for hook in _ARRAY_HOOKS
        )
        #: the run's key table, shared by every answer it returned
        self._table = _KeyTable([])
        #: accumulators by code; the first non-empty batch fixes the dtype
        self._acc: Optional[np.ndarray] = None
        #: sum of the cached batches' largest ``|int|`` partial, a bound on
        #: every accumulator kept below int64 overflow
        self._bound = 0

    def __len__(self) -> int:
        """Number of batches currently inside the window."""
        return len(self._cached)

    def add_batch(self, batch_output: Mapping[Key, Any]) -> Mapping[Key, Any]:
        """Slide the window forward by one batch and return the answer.

        Merges the new batch in; if the window is full, the oldest batch
        is inverse-applied (retracted) — never recomputed.  A key whose
        accumulator reaches zero drops out of the answer.
        """
        batch = self._encode(batch_output) if self._arrays else None
        if batch is None and self._arrays:
            self._leave_arrays()
        full = len(self._cached) == self.batches_per_window
        if not self._arrays:
            if full:
                self.aggregator.retract_from(self._answer, self._cached.popleft())
            self.aggregator.merge_into(self._answer, batch_output)
            self._cached.append(batch_output)
            return dict(self._answer)
        if full:
            codes, values, peak = self._cached.popleft()
            if codes.size:
                self._acc[codes] -= values
            self._bound -= peak
        codes, values, peak = batch
        if codes.size:
            self._acc[codes] += values
        self._bound += peak
        self._cached.append(batch)
        answer = self.answer()
        if len(self._table.keys) > 2 * max(_MIN_TABLE, len(answer) + codes.size):
            self._renumber()
            answer = self.answer()
        return answer

    def _encode(self, output: Mapping[Key, Any]) -> Optional[tuple]:
        """``output`` as ``(codes, values, peak)``, or None when the
        accumulator array cannot hold its partials."""
        keys, values = columns_of(output)
        kinds = set(map(type, values))
        if not kinds:
            return _NO_CODES, None, 0
        dtype = _DTYPES.get(kinds.pop()) if len(kinds) == 1 else None
        if dtype is None or (self._acc is not None and self._acc.dtype != dtype):
            return None
        try:
            array = np.fromiter(values, dtype=dtype, count=len(values))
        except OverflowError:
            return None
        peak = max(int(array.max()), -int(array.min())) if dtype is np.int64 else 0
        if self._bound + peak > _INT64_MAX:
            return None
        codes = self._table.encode(keys)
        size = len(self._table.keys)
        if self._acc is None or len(self._acc) < size:
            grown = np.zeros(max(_MIN_TABLE, 2 * size), dtype=dtype)
            if self._acc is not None:
                grown[: len(self._acc)] = self._acc
            self._acc = grown
        return codes, array, peak

    def _renumber(self) -> None:
        """Give the keys the window still holds (a cached batch's, or a
        non-zero accumulator's) codes ``0..n-1`` in a new table, so keys
        that left the window leave the table; answers already returned
        keep the old table, which no longer changes."""
        held = self._acc[: len(self._table.keys)] != 0
        for codes, _, _ in self._cached:
            held[codes] = True
        keep = np.flatnonzero(held)
        code = np.empty(len(held), dtype=np.intp)
        code[keep] = np.arange(len(keep))
        self._cached = deque((code[c], v, peak) for c, v, peak in self._cached)
        acc = np.zeros(max(_MIN_TABLE, 2 * len(keep)), dtype=self._acc.dtype)
        acc[: len(keep)] = self._acc[keep]
        self._table, self._acc = _KeyTable(self._table.keys_at(keep)), acc

    def _leave_arrays(self) -> None:
        """Move to the dict form for good: the answer and every cached
        batch become dicts."""
        keys_at = self._table.keys_at
        self._answer = self.answer()._dict()
        self._cached = deque(
            {} if values is None else dict(zip(keys_at(codes), values.tolist()))
            for codes, values, _ in self._cached
        )
        self._arrays = False
        self._table, self._acc = _KeyTable([]), None

    def answer(self) -> Mapping[Key, Any]:
        """The current window answer (per-key accumulator values)."""
        if not self._arrays:
            return dict(self._answer)
        if self._acc is None:
            return WindowAnswer(self._table, _NO_CODES, np.empty(0))
        codes = np.flatnonzero(self._acc[: len(self._table.keys)])
        return WindowAnswer(self._table, codes, self._acc[codes])

    def finalized_answer(self) -> dict[Key, Any]:
        """The answer with accumulators finalized (e.g. means from sums)."""
        finalize = self.aggregator.finalize
        return {k: finalize(v) for k, v in self.answer().items()}
