"""Streaming query model: Map/Reduce functions over windowed batches.

Section 2.1: a streaming query compiles into a Map-Reduce execution
graph applied to every micro-batch; the Map stage is
``Map(k, v1) -> (k, List(V))`` — it transforms/filters values but keeps
the partitioning key — and the Reduce stage aggregates per key.  The
query answer aggregates all batch outputs inside the window, with
expired batches removed *incrementally* through an inverse Reduce
function (Figure 3), avoiding recomputation.

We express the per-key computation as an :class:`Aggregator` (zero /
add / merge / inverse), which gives the engine everything it needs:
map-side partial aggregation, reduce-side merging across Map fragments,
and window retraction.  Its bulk hooks (:meth:`Aggregator.fold`,
:meth:`Aggregator.merge_all`, :meth:`Aggregator.merge_into`,
:meth:`Aggregator.retract_from`) apply those per-key operations to a
whole Map fragment or batch output at once.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial, reduce
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Sized

from ..core.tuples import Key, group_by_key

__all__ = [
    "Aggregator",
    "SumAggregator",
    "CountAggregator",
    "SumCountAggregator",
    "WindowSpec",
    "Query",
    "count_one",
]


def count_one(key: Key, value: Any) -> int:
    """Map every occurrence to 1 (module-level so queries stay picklable:
    parallel execution backends ship the query to worker processes)."""
    return 1


class Aggregator(abc.ABC):
    """An invertible, commutative per-key aggregation.

    ``merge`` must be associative and commutative (Map fragments arrive
    in arbitrary order); ``inverse`` must satisfy
    ``inverse(merge(a, b), b) == a`` — the inverse-Reduce property the
    paper relies on for sliding windows (Sections 2.1, 7).
    """

    @abc.abstractmethod
    def zero(self) -> Any:
        """The identity element."""

    @abc.abstractmethod
    def add(self, acc: Any, value: Any) -> Any:
        """Fold one mapped value into an accumulator."""

    @abc.abstractmethod
    def merge(self, a: Any, b: Any) -> Any:
        """Combine two accumulators."""

    @abc.abstractmethod
    def inverse(self, a: Any, b: Any) -> Any:
        """Remove accumulator ``b``'s contribution from ``a``."""

    def finalize(self, acc: Any) -> Any:
        """Turn an accumulator into a result value (default: itself)."""
        return acc

    # -- bulk hooks: one call per fragment or batch output ---------------
    def fold(
        self, key: Key, values: Iterable[Any], map_fn: Optional[Callable[[Key, Any], Any]]
    ) -> tuple[Any, int]:
        """Map: fold one fragment's mapped values into a partial.

        Each value becomes ``map_fn(key, value)`` (itself when ``map_fn``
        is None); a None result is filtered out and the rest are added
        left to right with :meth:`add`, starting from :meth:`zero`.
        Returns ``(partial, emitted)``, ``emitted`` being the number of
        values that were not filtered out.
        """
        acc = self.zero()
        emitted = 0
        add = self.add
        for value in values:
            mapped = value if map_fn is None else map_fn(key, value)
            if mapped is not None:
                emitted += 1
                acc = add(acc, mapped)
        return acc, emitted

    def merge_all(self, fragments: Sequence[tuple[Key, Any]]) -> dict[Key, Any]:
        """Reduce: fold each key's partials left to right with :meth:`merge`.

        ``fragments`` holds one ``(key, partial)`` pair per Map fragment;
        keys come out in order of first appearance.  A key's single
        partial is its result as it is, with no merge call.
        """
        grouped: dict[Key, list[Any]] = {}
        for key, part in fragments:
            grouped.setdefault(key, []).append(part)
        return dict(zip(grouped, map(partial(reduce, self.merge), grouped.values())))

    def merge_into(self, answer: dict[Key, Any], output: Mapping[Key, Any]) -> None:
        """Window: merge one batch output into ``answer`` in place.

        A key absent from ``answer`` takes the batch's accumulator as it
        is.  A zero accumulator (e.g. +5 and -5 summed) is
        indistinguishable from absence, so a key that merges to
        :meth:`zero` is dropped: the answer stays sparse, and merges and
        retractions agree.
        """
        zero = self.zero()
        merge = self.merge
        for key, acc in output.items():
            current = answer.get(key)
            merged = acc if current is None else merge(current, acc)
            if merged == zero:
                answer.pop(key, None)
            else:
                answer[key] = merged

    def retract_from(self, answer: dict[Key, Any], expired: Mapping[Key, Any]) -> None:
        """Window: inverse-apply one expired batch output to ``answer``.

        An absent key means its in-window accumulators cancel to zero
        (see :meth:`merge_into`), so it is retracted from that zero; a
        key that retracts to zero is dropped.
        """
        zero = self.zero()
        inverse = self.inverse
        for key, acc in expired.items():
            reduced = inverse(answer.get(key, zero), acc)
            if reduced == zero:
                answer.pop(key, None)
            else:
                answer[key] = reduced


class _AdditiveAggregator(Aggregator):
    """Accumulators are numbers under ``+``/``-`` with identity ``0``.

    While every partial is an exact ``int`` or ``float``, the window
    keeps this aggregator's answer in an accumulator array
    (:mod:`repro.engine.windows`), which adds and subtracts exactly as
    :meth:`merge` and :meth:`inverse` do; the base class's dict hooks
    take any other partial.  No fold here may call builtin ``sum`` or
    ``math.fsum``: on floats neither adds strictly left to right (3.12's
    ``sum`` is compensated).
    """

    def zero(self) -> int:
        return 0

    def merge(self, a: Any, b: Any) -> Any:
        return a + b

    def inverse(self, a: Any, b: Any) -> Any:
        return a - b


class SumAggregator(_AdditiveAggregator):
    """Numeric sum — WordCount, DEBS fares/distances, TPC-H quantities.

    :meth:`fold` writes :meth:`add` inline, so a subclass that overrides
    ``add`` must override ``fold`` as well.
    """

    def add(self, acc: float, value: float) -> float:
        return acc + value

    def fold(
        self, key: Key, values: Iterable[Any], map_fn: Optional[Callable[[Key, Any], Any]]
    ) -> tuple[Any, int]:
        acc = 0
        emitted = 0
        for value in values:
            mapped = value if map_fn is None else map_fn(key, value)
            if mapped is not None:
                emitted += 1
                acc = acc + mapped
        return acc, emitted


class CountAggregator(_AdditiveAggregator):
    """Occurrence count, ignoring the mapped value."""

    def add(self, acc: int, value: Any) -> int:
        return acc + 1


class SumCountAggregator(Aggregator):
    """(sum, count) pairs — finalizes to the mean (GCM resource averages)."""

    def zero(self) -> tuple[float, int]:
        return (0.0, 0)

    def add(self, acc: tuple[float, int], value: float) -> tuple[float, int]:
        return (acc[0] + value, acc[1] + 1)

    def merge(self, a: tuple[float, int], b: tuple[float, int]) -> tuple[float, int]:
        return (a[0] + b[0], a[1] + b[1])

    def inverse(self, a: tuple[float, int], b: tuple[float, int]) -> tuple[float, int]:
        return (a[0] - b[0], a[1] - b[1])

    def finalize(self, acc: tuple[float, int]) -> float:
        total, count = acc
        return total / count if count else 0.0


@dataclass(frozen=True, slots=True)
class WindowSpec:
    """A sliding (or, when ``slide == length``, tumbling) time window."""

    length: float
    slide: float

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"window length must be positive, got {self.length}")
        if self.slide <= 0:
            raise ValueError(f"window slide must be positive, got {self.slide}")
        if self.slide > self.length:
            raise ValueError("slide must not exceed window length")

    @property
    def is_tumbling(self) -> bool:
        return self.slide == self.length

    def batches_per_window(self, batch_interval: float) -> int:
        """How many consecutive batches one window spans."""
        if batch_interval <= 0:
            raise ValueError("batch_interval must be positive")
        return max(1, round(self.length / batch_interval))


@dataclass(frozen=True)
class Query:
    """A compiled streaming query.

    ``map_fn`` transforms one tuple's value (the key is fixed by the
    partitioning schema); returning ``None`` filters the tuple out.
    ``aggregator`` defines the Reduce (and inverse-Reduce) semantics.
    """

    name: str
    aggregator: Aggregator
    window: Optional[WindowSpec] = None
    map_fn: Optional[Callable[[Key, Any], Any]] = None
    #: Algebraic aggregations combine map-side: each Map task ships one
    #: partial record per key fragment instead of the raw values list
    #: (Spark's reduceByKey behaviour).  Holistic queries set this False
    #: and ship full value lists, so cluster sizes stay proportional to
    #: tuple counts.
    map_side_combine: bool = True

    def block_form(self) -> Optional[Callable[[Sized], Any]]:
        """The Map stage of one whole fragment in a single call, or None.

        The callable takes a fragment — one entry per tuple, a
        :class:`~repro.core.batch.DataBlock` chain or a
        :class:`~repro.core.batch.MapInput` value column — and returns
        its map-side partial; a query with a block form emits every
        tuple.  WordCount has one: ``count_one`` into a
        :class:`CountAggregator` makes a fragment's partial its length.
        Every other query keeps the per-value loop — a float sum must
        add left to right, a holistic query ships every value, and a
        custom ``map_fn`` must see each one.
        """
        if self.map_fn is count_one and type(self.aggregator) is CountAggregator:
            return len
        return None

    def reference_output(self, tuples, block_ends: Sequence[int] = ()) -> dict[Key, Any]:
        """Ground-truth per-key aggregate over raw tuples, bypassing
        partitioning, tasks and shuffle — what any correct execution must
        equal.  ``block_ends`` splits ``tuples`` into Map blocks (default:
        one): each block folds its keys left to right, then each key's
        partials merge in block order, as the engine associates a sum.
        """
        agg, out = self.aggregator, {}
        bounds = zip((0, *block_ends), block_ends)
        for block in [tuples[a:b] for a, b in bounds] if block_ends else [tuples]:
            for key, chain in group_by_key(block).items():
                acc, emitted = agg.fold(key, (t.value for t in chain), self.map_fn)
                if emitted:
                    out[key] = agg.merge(out[key], acc) if key in out else acc
        return out
