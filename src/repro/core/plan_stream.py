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

from typing import Iterable, Iterator, Sequence

from .batch import DataBlock
from .tuples import Key, KeyGroup, StreamTuple

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

    ``size`` / ``cardinality`` / ``fragment_sizes`` / ``__contains__``
    behave identically to the eager block, so ``_rebalance_sizes`` runs
    on either representation unchanged.

    A fragment is stored one of two ways in the same insertion-ordered
    dict.  Almost every key is small, is dealt whole to one block and
    never moves again, so :meth:`install_whole_chains` records it as a
    plain ``(chain, weight)`` tuple — no per-key object.  Only when a
    later pass extends, removes or shaves that fragment is it promoted
    (in place, keeping its dict position) to a :class:`SegmentChain`.
    """

    __slots__ = ("index", "_fragments", "_weight")

    def __init__(self, index: int) -> None:
        self.index = index
        self._fragments: dict[
            Key, SegmentChain | tuple[Sequence[StreamTuple], int]
        ] = {}
        self._weight = 0

    def _segment_chain(self, key: Key) -> SegmentChain:
        """``key``'s fragment as a :class:`SegmentChain`, created or
        promoted from a whole-chain entry as needed."""
        fragment = self._fragments.get(key)
        if type(fragment) is not SegmentChain:
            whole = fragment
            fragment = self._fragments[key] = SegmentChain()
            if whole is not None:
                fragment.append(whole[0], 0, len(whole[0]), whole[1])
        return fragment

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
        if start == 0 and stop == len(chain) and key not in self._fragments:
            self._fragments[key] = (chain, weight)
        else:
            self._segment_chain(key).append(chain, start, stop, weight)
        self._weight += weight

    def install_whole_chains(
        self, groups: Iterable[KeyGroup], weights: Iterable[int]
    ) -> None:
        """Record each group's entire chain as this block's fragment of
        its key, which must be new to the block; ``weights`` are the
        groups' exact sizes (an empty group is skipped, as everywhere)."""
        fragments = self._fragments
        installed = 0
        for group, weight in zip(groups, weights):
            if weight:
                fragments[group.key] = (group.tuples, weight)
                installed += weight
        self._weight += installed

    def install_fragment(
        self,
        key: Key,
        tuples: "SegmentChain | Sequence[StreamTuple]",
        weight: int,
    ) -> None:
        if isinstance(tuples, SegmentChain):
            if not tuples.count:
                return
            self._segment_chain(key).extend(tuples)
            self._weight += tuples.weight
            return
        self.add_segment(key, tuples, 0, len(tuples), weight)

    def remove_fragment(self, key: Key) -> SegmentChain:
        if key not in self._fragments:
            return SegmentChain()
        fragment = self._segment_chain(key)
        del self._fragments[key]
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
        return {
            k: f.weight if type(f) is SegmentChain else f[1]
            for k, f in self._fragments.items()
        }

    def __contains__(self, key: Key) -> bool:
        return key in self._fragments

    def materialize(self) -> DataBlock:
        """Copy the planned fragments into a real :class:`DataBlock`.

        This is the single per-tuple copy of the ledger path; it
        replays fragment-dict insertion order and intra-fragment segment
        order, so the result is indistinguishable from the eager block.
        The block's tables are written directly — every fragment is new
        to it and carries its exact weight, so ``install_fragment``'s
        per-key probe-and-merge has nothing to do.
        """
        block = DataBlock(self.index)
        fragments = block._fragments
        weights = block._fragment_weights
        for key, fragment in self._fragments.items():
            if type(fragment) is SegmentChain:
                fragments[key] = fragment.to_list()
                weights[key] = fragment.weight
            else:
                fragments[key] = list(fragment[0])
                weights[key] = fragment[1]
        block._weight = self._weight
        return block


def split_segment_chain(
    chain: SegmentChain, cut: int, total_weight: int | None = None
) -> tuple[SegmentChain, SegmentChain, int]:
    """``_split_with_weight``-shaped adapter over :meth:`SegmentChain.split`."""
    return chain.split(cut)
