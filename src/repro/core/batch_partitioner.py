"""Load-balanced batch partitioning — the B-BPFI heuristic (Algorithm 2).

The batching-phase partitioning problem is modelled as *Balanced Bin
Packing with Fragmentable Items* (Definition 1): keys are items whose
size is their tuple count, blocks are equal-capacity bins, and the goal
is equal bin sizes, balanced per-bin cardinality, and minimal item
fragmentation — NP-complete (Theorem 1).

Two strategies are provided:

- ``"greedy"`` (default) — the BestFitDecreasing realization.  The paper
  motivates its zigzag pass as achieving "the effect of
  BestFitDecreasing without the need and cost to maintain the block
  sizes"; this strategy *does* maintain block state: split keys (size
  > ``S_cut``) go LPT onto the least-loaded block, diced into chunks of
  half a block or more (requirement 3: minimal fragments), then the
  remaining keys are dealt zigzag over the blocks still below capacity
  (requirements 1 and 2), and a rebalance pass drains any overshoot.
  It runs in :func:`repro.core.kernels.plan_greedy`.

- ``"zigzag"`` — the literal three-pass text of Algorithm 2: an
  ``S_cut`` split pass round-robin over blocks, a boustrophedon deal of
  the remaining keys, and a locality-first BestFit residual pass.  It
  avoids per-block bookkeeping, but when residual volume is large and
  uneven (high-cardinality batches) the spill placement concentrates
  keys on the emptiest blocks, inflating BCI — the ablation bench
  quantifies the gap, which is why ``"greedy"`` is the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Sequence

from . import kernels
from .batch import BatchInfo, DataBlock, PartitionedBatch
from .config import PartitionerConfig
from .tuples import Key, KeyGroup, StreamTuple, _order_token

__all__ = ["PromptBatchPartitioner"]


def _split_with_weight(
    tuples: Sequence[StreamTuple], cut: int, total_weight: int | None = None
) -> tuple[list[StreamTuple], list[StreamTuple], int]:
    """Split a key's tuple chain into a head of weight >= ``cut``, the
    rest, and the head's weight.

    With unit weights the head holds exactly ``cut`` tuples.  With
    variable weights it is the shortest prefix reaching the cut,
    mirroring the paper's "put ``S_cut`` fragment" step.  The walk
    accumulates the head weight anyway; returning it lets callers that
    track fragment weights re-install both halves without re-summing
    per tuple.  When the caller knows the chain's ``total_weight``,
    unit-weight chains are detected in O(1) — ``StreamTuple`` enforces
    ``weight >= 1``, so total == count iff every weight is 1 — and split
    by pure slicing.
    """
    if cut <= 0:
        return [], list(tuples), 0
    count = len(tuples)
    if total_weight is not None and total_weight == count:
        head = list(tuples[:cut])
        return head, list(tuples[cut:]), len(head)
    acc = 0
    for i, t in enumerate(tuples):
        acc += t.weight
        if acc >= cut:
            return list(tuples[: i + 1]), list(tuples[i + 1 :]), acc
    return list(tuples), [], acc


@dataclass(slots=True)
class _Residual:
    """A parked residual fragment of a split key (zigzag strategy)."""

    key: Key
    tuples: list[StreamTuple]
    home_block: int  # lookupLargePos(k): block holding the first fragment


class PromptBatchPartitioner:
    """Algorithm 2: partition a quasi-sorted batch into ``p`` data blocks."""

    def __init__(
        self,
        config: PartitionerConfig | None = None,
        *,
        strategy: str = "greedy",
    ) -> None:
        if strategy not in ("greedy", "zigzag"):
            raise ValueError(
                f"strategy must be 'greedy' or 'zigzag', got {strategy!r}"
            )
        self.config = config or PartitionerConfig()
        self.strategy = strategy

    def partition(
        self,
        key_groups: Sequence[KeyGroup],
        num_blocks: int,
        info: BatchInfo,
    ) -> PartitionedBatch:
        """Assign every tuple of ``key_groups`` to one of ``num_blocks`` blocks.

        ``key_groups`` must be (quasi-)sorted by descending size — the
        accumulator's traversal order.  The output's reference table
        (``split_keys``) records every fragmented key.  The blocks hold
        copies of the groups' tuple lists, never the lists themselves.
        """
        if self.strategy == "greedy":
            return kernels.plan_greedy(
                self, kernels.ingest_groups(key_groups, info), num_blocks
            )
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        blocks = [DataBlock(i) for i in range(num_blocks)]
        placements: dict[Key, set[int]] = {}
        total_weight = sum(g.size for g in key_groups)
        if not key_groups or total_weight == 0:
            return PartitionedBatch(
                info=info, blocks=blocks, split_keys={}, partitioner_name="prompt"
            )

        # Line 1-3: expected block size, cardinality, and split cutoff.
        p_size = math.ceil(total_weight / num_blocks)
        p_card = max(1, len(key_groups) // num_blocks)
        s_cut = max(1, int((p_size / p_card) * self.config.split_cutoff_scale))

        residuals, whole_groups = self._split_pass(
            key_groups, blocks, placements, s_cut
        )
        self._zigzag_pass(whole_groups, blocks, placements)
        self._residual_pass(residuals, blocks, placements, p_size)

        split_keys = {
            k: tuple(sorted(ixs)) for k, ixs in placements.items() if len(ixs) > 1
        }
        return PartitionedBatch(
            info=info,
            blocks=blocks,
            split_keys=split_keys,
            partitioner_name="prompt",
        )

    # ------------------------------------------------------------------
    # greedy strategy: phase 3, shared with the placement kernel
    # ------------------------------------------------------------------
    def _rebalance_sizes(
        self,
        blocks: list[DataBlock],
        placements: dict[Key, AbstractSet[int]],
        p_size: int,
    ) -> None:
        """Drain blocks above capacity into blocks with room.

        Two kinds of moves, in preference order per step:

        1. relocate a whole single-block key (no fragmentation cost);
        2. *shave*: split the overfull block's largest fragment and ship
           the excess — preferring a receiver that already holds the
           key, so shaving usually extends an existing split instead of
           fragmenting a new key.

        Terminates when no block exceeds ``p_size`` (always reachable:
        total size <= num_blocks * p_size) or the step guard trips.

        ``placements`` entries are rebound, never mutated in place: the
        placement kernel points every unsplit key at one shared
        frozenset per block.  A whole fragment that moves (or is put
        back) is the same list, handed over with ``adopt_fragment``, not
        copied.
        """
        # Overshoot within the global ceil slack (num_blocks * p_size -
        # total) is already balanced to within a tuple per block; shaving
        # it off would only fragment another key for nothing.
        slack = len(blocks) * p_size - sum(b.size for b in blocks)
        for _ in range(8 * len(blocks) + 8):
            donor = max(blocks, key=lambda b: (b.size, b.index))
            excess = donor.size - p_size
            if excess <= min(slack, max(0, p_size // 64)) or excess <= 0:
                return
            receiver = min(blocks, key=lambda b: (b.size, b.cardinality, b.index))
            room = p_size - receiver.size
            if room <= 0:
                return  # everything full; nothing can improve
            # Move preference: (1) relocate a whole single-block key no
            # bigger than the excess (gentle, no new fragments);
            # (2) shave the largest fragment — preferring a receiver
            # already holding that key, so shaving extends an existing
            # split; (3) as a last resort for coarse tuple weights,
            # relocate a whole key bigger than the excess (donor drops
            # below capacity, receiver stays within it).
            singles = [
                (fsize, _order_token(k), k)
                for k, fsize in donor.fragment_sizes().items()
                if len(placements.get(k, ())) == 1
            ]
            admissible = [
                (fsize, token, k)
                for fsize, token, k in singles
                if 0 < fsize <= room and donor.size - fsize >= receiver.size
            ]
            within = [a for a in admissible if a[0] <= excess]
            if within:
                fsize, _, key = min(within)
                receiver.adopt_fragment(key, donor.remove_fragment(key), fsize)
                placements[key] = {receiver.index}
                continue
            # Move 2: shave the donor's largest fragment.
            fsize, _, key = max(
                (fs, _order_token(k), k)
                for k, fs in donor.fragment_sizes().items()
            )
            holders = [
                b
                for b in blocks
                if b is not donor and key in b and b.size < p_size
            ]
            shave_receiver = receiver
            shave_room = room
            if holders:
                shave_receiver = max(holders, key=lambda b: (p_size - b.size, -b.index))
                shave_room = p_size - shave_receiver.size
            piece = min(excess, shave_room, fsize)
            moved = False
            if piece > 0:
                chain = donor.remove_fragment(key)
                keep, move, keep_weight = _split_with_weight(
                    chain, fsize - piece, fsize
                )
                if move:
                    if keep:
                        donor.install_fragment(key, keep, keep_weight)
                    else:
                        placements[key] = placements[key] - {donor.index}
                    shave_receiver.install_fragment(key, move, fsize - keep_weight)
                    placements[key] = placements[key] | {shave_receiver.index}
                    moved = True
                else:
                    # Indivisible tuple weights: the shave cannot carve
                    # this piece off; restore and fall through.
                    donor.adopt_fragment(key, chain, fsize)
            if moved:
                continue
            if admissible:
                fsize, _, key = min(admissible)
                receiver.adopt_fragment(key, donor.remove_fragment(key), fsize)
                placements[key] = {receiver.index}
                continue
            return  # nothing improves within the item granularity

    # ------------------------------------------------------------------
    # literal zigzag strategy (Algorithm 2 as printed)
    # ------------------------------------------------------------------
    def _split_pass(
        self,
        key_groups: Sequence[KeyGroup],
        blocks: list[DataBlock],
        placements: dict[Key, set[int]],
        s_cut: int,
    ) -> tuple[list[_Residual], list[KeyGroup]]:
        """Lines 5-9: fragment high-frequency keys.

        Because the input is only *quasi*-sorted, we scan the whole list
        for oversize keys rather than stopping at the first small one —
        a stale tracked count must not exempt a genuinely large key.
        """
        residuals: list[_Residual] = []
        whole: list[KeyGroup] = []
        cursor = 0
        num_blocks = len(blocks)
        for group in key_groups:
            if group.size > s_cut:
                fragment, rest, _ = _split_with_weight(group.tuples, s_cut)
                target = cursor % num_blocks
                blocks[target].add_fragment(group.key, fragment)
                placements.setdefault(group.key, set()).add(target)
                cursor += 1
                if rest:
                    residuals.append(
                        _Residual(key=group.key, tuples=rest, home_block=target)
                    )
            else:
                whole.append(group)
        return residuals, whole

    def _zigzag_pass(
        self,
        key_groups: Sequence[KeyGroup],
        blocks: list[DataBlock],
        placements: dict[Key, set[int]],
    ) -> None:
        """Lines 10-16: deal unsplit keys one per block, reversing each pass."""
        order = [b.index for b in blocks]
        i = len(order)  # force order (re)build on first key
        for group in key_groups:
            if i >= len(order):
                order.reverse()
                i = 0
            target = order[i]
            blocks[target].add_fragment(group.key, group.tuples)
            placements.setdefault(group.key, set()).add(target)
            i += 1

    def _residual_pass(
        self,
        residuals: list[_Residual],
        blocks: list[DataBlock],
        placements: dict[Key, set[int]],
        p_size: int,
    ) -> None:
        """Lines 17-25: place residuals, preferring key locality, then BestFit."""
        for residual in residuals:
            self._place_residual(residual, blocks, placements, p_size)

    def _place_residual(
        self,
        residual: _Residual,
        blocks: list[DataBlock],
        placements: dict[Key, set[int]],
        p_size: int,
    ) -> None:
        key = residual.key
        tuples = residual.tuples
        placed = placements.setdefault(key, set())

        def remaining(block: DataBlock) -> int:
            return p_size - block.size

        # Key locality first: the block that already holds the key's
        # large fragment (lines 18-22).
        home = blocks[residual.home_block]
        size = sum(t.weight for t in tuples)
        if size <= remaining(home):
            home.add_fragment(key, tuples)
            placed.add(home.index)
            return
        if remaining(home) > 0:
            head, tuples, _ = _split_with_weight(tuples, remaining(home))
            home.add_fragment(key, head)
            placed.add(home.index)

        # BestFit for the rest: among blocks that can hold it whole,
        # prefer the lowest-cardinality one, breaking ties toward the
        # fullest; fragment across successively fuller blocks only when
        # nothing fits.
        while tuples:
            size = sum(t.weight for t in tuples)
            open_blocks = [b for b in blocks if remaining(b) > 0]
            if not open_blocks:
                fallback = min(blocks, key=lambda b: (b.size, b.index))
                fallback.add_fragment(key, tuples)
                placed.add(fallback.index)
                return
            fitting = [b for b in open_blocks if remaining(b) >= size]
            if fitting:
                best = min(
                    fitting, key=lambda b: (b.cardinality, remaining(b), b.index)
                )
                best.add_fragment(key, tuples)
                placed.add(best.index)
                return
            roomiest = max(open_blocks, key=lambda b: (remaining(b), -b.index))
            head, tuples, _ = _split_with_weight(tuples, remaining(roomiest))
            roomiest.add_fragment(key, head)
            placed.add(roomiest.index)
