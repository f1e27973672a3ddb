"""Zero-copy segment ledgers for the numpy placement kernel.

Algorithm 2's placement passes move key fragments between blocks several
times (LPT dicing, the zigzag deal, the rebalance pass) before the plan
is final.  :func:`~repro.core.kernels.plan_greedy` runs those passes on
:class:`LedgerBlock`\\ s — blocks that duck-type
:class:`~repro.core.batch.DataBlock` for every operation the placement
passes use, but record fragments as *segment references*
``(chain, start, stop)`` into the accumulator's existing tuple chains
instead of copying tuples around.  Once the placement is final each
ledger is materialized into a real :class:`DataBlock` with a single
per-tuple copy, identical byte-for-byte to what the pure-Python planner
builds, because materialization replays the exact fragment-insertion
and intra-fragment segment order of that path.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .batch import DataBlock
from .tuples import Key, StreamTuple

__all__ = ["LedgerBlock", "SegmentChain", "split_segment_chain"]


class SegmentChain:
    """A key fragment as a list of segments into existing tuple chains.

    Each segment ``(chain, start, stop, weight)`` references a span of
    an accumulator chain (or any tuple sequence) without copying it.
    Concatenating the segments in insertion order reproduces exactly the
    tuple list the eager :class:`DataBlock` would hold, because the
    placement passes append fragments in the same order either way.
    """

    __slots__ = ("segments", "weight", "count")

    def __init__(self) -> None:
        self.segments: list[tuple[Sequence[StreamTuple], int, int, int]] = []
        self.weight = 0
        self.count = 0

    def append(
        self, chain: Sequence[StreamTuple], start: int, stop: int, weight: int
    ) -> None:
        if stop <= start:
            return
        self.segments.append((chain, start, stop, weight))
        self.weight += weight
        self.count += stop - start

    def extend(self, other: "SegmentChain") -> None:
        self.segments.extend(other.segments)
        self.weight += other.weight
        self.count += other.count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[StreamTuple]:
        for chain, start, stop, _ in self.segments:
            yield from chain[start:stop]

    def to_list(self) -> list[StreamTuple]:
        out: list[StreamTuple] = []
        for chain, start, stop, _ in self.segments:
            out.extend(chain[start:stop])
        return out

    # -- the rebalance pass's split, in segment space -------------------
    def split(self, cut: int) -> tuple["SegmentChain", "SegmentChain", int]:
        """Split into (head, tail, head_weight) exactly like
        ``_split_with_weight``: unit-weight chains split by count, and
        weighted chains take the shortest prefix reaching ``cut``.
        """
        head = SegmentChain()
        tail = SegmentChain()
        if cut <= 0:
            tail.extend(self)
            return head, tail, 0
        if self.weight == self.count:  # every weight is 1 (enforced >= 1)
            remaining = cut
            for chain, start, stop, _ in self.segments:
                if remaining <= 0:
                    tail.append(chain, start, stop, stop - start)
                    continue
                take = min(remaining, stop - start)
                head.append(chain, start, start + take, take)
                remaining -= take
                if take < stop - start:
                    tail.append(chain, start + take, stop, stop - (start + take))
            return head, tail, head.weight
        acc = 0
        split_done = False
        for chain, start, stop, seg_weight in self.segments:
            if split_done:
                tail.append(chain, start, stop, seg_weight)
                continue
            if acc + seg_weight < cut:
                head.append(chain, start, stop, seg_weight)
                acc += seg_weight
                continue
            # the cut lands inside this segment: per-tuple walk, exactly
            # the eager path's ``acc >= cut`` predicate
            before = acc
            for i in range(start, stop):
                acc += chain[i].weight
                if acc >= cut:
                    head.append(chain, start, i + 1, acc - before)
                    tail.append(chain, i + 1, stop, seg_weight - (acc - before))
                    split_done = True
                    break
        return head, tail, acc


class LedgerBlock:
    """Duck-types :class:`DataBlock` for the placement passes.

    Fragments are :class:`SegmentChain`\\ s; ``size`` / ``cardinality``
    / ``fragment_sizes`` / ``__contains__`` behave identically to the
    eager block, so ``_rebalance_sizes`` runs on either representation
    unchanged.
    """

    __slots__ = ("index", "_fragments", "_weight")

    def __init__(self, index: int) -> None:
        self.index = index
        self._fragments: dict[Key, SegmentChain] = {}
        self._weight = 0

    # -- mutation (mirrors DataBlock exactly, including empty skips) ----
    def add_segment(
        self,
        key: Key,
        chain: Sequence[StreamTuple],
        start: int,
        stop: int,
        weight: int,
    ) -> None:
        """Append ``chain[start:stop]`` (known ``weight``) to ``key``."""
        if stop <= start:
            return
        fragment = self._fragments.get(key)
        if fragment is None:
            fragment = self._fragments[key] = SegmentChain()
        fragment.append(chain, start, stop, weight)
        self._weight += weight

    def install_fragment(
        self,
        key: Key,
        tuples: "SegmentChain | Sequence[StreamTuple]",
        weight: int,
    ) -> None:
        if isinstance(tuples, SegmentChain):
            if not tuples.count:
                return
            fragment = self._fragments.get(key)
            if fragment is None:
                fragment = self._fragments[key] = SegmentChain()
            fragment.extend(tuples)
            self._weight += tuples.weight
            return
        self.add_segment(key, tuples, 0, len(tuples), weight)

    def remove_fragment(self, key: Key) -> SegmentChain:
        fragment = self._fragments.pop(key, None)
        if fragment is None:
            return SegmentChain()
        self._weight -= fragment.weight
        return fragment

    # -- inspection -----------------------------------------------------
    @property
    def size(self) -> int:
        return self._weight

    @property
    def cardinality(self) -> int:
        return len(self._fragments)

    def fragment_sizes(self) -> dict[Key, int]:
        return {k: f.weight for k, f in self._fragments.items()}

    def __contains__(self, key: Key) -> bool:
        return key in self._fragments

    def materialize(self) -> DataBlock:
        """Copy the planned fragments into a real :class:`DataBlock`.

        This is the single per-tuple copy of the ledger path; it
        replays fragment-dict insertion order and intra-fragment segment
        order, so the result is indistinguishable from the eager block.
        """
        block = DataBlock(self.index)
        for key, fragment in self._fragments.items():
            block.install_fragment(key, fragment.to_list(), fragment.weight)
        return block


def split_segment_chain(
    chain: SegmentChain, cut: int, total_weight: int | None = None
) -> tuple[SegmentChain, SegmentChain, int]:
    """``_split_with_weight``-shaped adapter over :meth:`SegmentChain.split`."""
    return chain.split(cut)
