"""Algorithms 1 and 2, batch-at-a-time on numpy.

The paper's Algorithm 1 is a per-tuple loop: a dict probe, attribute
updates and an eligibility check for every arrival, then ``O(log K)``
CountTree moves for the updates that fire.  At high arrival rates that
per-tuple constant — not the algorithm — is the single-node ceiling.
These kernels are the only implementation of Algorithms 1 and 2 a run
takes; they compute the same outcome an interval at a time, on two
structural facts:

1. **The CountTree never needs to exist.**  Its nodes are ordered by
   ``(count, _order_token(key))`` and the token is unique per key, so the
   quasi-sorted traversal is a pure function of each key's *final
   tracked count*: sort by ``(count, token)`` descending.  Algorithm 1's
   budget mechanism is a per-key recurrence over that key's arrival
   times that fires at most ``budget`` updates, so it runs in rounds:
   each round advances every still-active key by one update.  The
   frequency trigger's firing index is a closed form
   (``f.updated + f.step - 1``); the time trigger is one masked compare
   over every key's scan range at once.  A round costs a few numpy
   passes, whatever the number of keys, and there are at most
   ``budget`` of them.

2. **Algorithm 2's zigzag deal is batched.**  With a capacity bound the
   pass order is rebuilt (open blocks ascending, then reversed) at every
   pass boundary, so each pass deals one key per open block in
   descending block order, and the order only changes once an open block
   fills — expressible as slice assignments over a sorted size array,
   one numpy step per run of passes instead of per key.

The oracle is the paper's pseudocode, transcribed tuple by tuple in
``tests/oracle/prompt_spec.py``; the property suites hold the kernels
*bit-compatible* with it: identical quasi-sort order, tracked counts,
tree-update totals, block contents, placements and ``split_keys``.  All
float comparisons replicate the pseudocode's exact expressions (e.g.
``T[j] - last_update >= t_step``, never the algebraically equal
``T[j] >= last_update + t_step``), and every number stored into output
structures is converted back to a Python ``int``/``float``.
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from operator import attrgetter
from typing import TYPE_CHECKING, AbstractSet, Sequence

import numpy as np

from .batch import BatchInfo, DataBlock, PartitionedBatch
from .buffering import AccumulatedBatch, MicroBatchAccumulator
from .sketch_accumulator import SketchMicroBatchAccumulator
from .tuples import Key, StreamTuple, token_order

if TYPE_CHECKING:
    from .batch_partitioner import PromptBatchPartitioner

__all__ = [
    "accumulate_batch",
    "plan_greedy",
]

_GET_KEY = attrgetter("key")
_GET_TS = attrgetter("ts")
_GET_WEIGHT = attrgetter("weight")


def _simulate_keys(ts, order, starts, counts, budget, est, f0, t_end):
    """Algorithm 1's update mechanism for many keys at once, one round per event.

    ``ts`` holds the batch's arrival times in key-sorted order and
    ``order`` the matching 0-based global stream indexes (the key
    sort's permutation); key ``i`` occupies ``[starts[i], starts[i] +
    counts[i])`` of both, with ``counts[i] >= 2``.  Returns the keys'
    final tracked counts and the CountTree updates each consumed, as
    int64 arrays aligned with ``starts``.

    Every round, every still-active key fires its next update.  Between
    updates ``f.step`` and ``t.step`` are constant, so the frequency
    trigger fires at the closed-form arrival index ``jA = f.updated +
    f.step - 1``; the time trigger is the first arrival after the last
    update and before ``jA`` with ``T[j] - last_update >= t_step`` —
    one masked compare over all keys' scan ranges concatenated (arrival
    times need not be monotone: late tuples are admitted).  The
    frequency branch wins ties, as the pseudocode checks it first.  A key
    with neither trigger left is done; the rest have spent one more
    update, so ``budget_left`` is the same for every active key and the
    loop runs at most ``budget`` rounds.  The float expressions are the
    pseudocode's, evaluated in float64.
    """
    tracked = np.ones(starts.size, dtype=np.int64)  # == f.updated
    updates = np.zeros(starts.size, dtype=np.int64)
    lut = ts[starts]
    t_step = np.maximum(t_end - lut, 0.0) / budget
    f_step = np.full(starts.size, f0, dtype=np.int64)
    scale = est / budget
    active = np.arange(starts.size)
    for budget_left in range(budget - 1, -1, -1):  # budget left after the round
        fu = tracked[active]
        base = starts[active]
        jA = fu + f_step[active] - 1
        # scan range of arrival indexes: [fu, min(jA - 1, m - 1)]
        length = np.minimum(jA, counts[active]) - fu
        scanning = np.flatnonzero(length > 0)
        j = jA
        time_fired = np.zeros(active.size, dtype=bool)
        if scanning.size:
            scanned = active[scanning]
            lengths = length[scanning]
            seg_starts = np.cumsum(lengths) - lengths
            offset = np.arange(int(lengths.sum())) - np.repeat(seg_starts, lengths)
            pos = np.repeat(base[scanning] + fu[scanning], lengths) + offset
            hit = ts[pos] - np.repeat(lut[scanned], lengths) >= np.repeat(
                t_step[scanned], lengths
            )
            # first hit in each range; a range without one reads its length
            first = np.minimum.reduceat(
                np.where(hit, offset, np.repeat(lengths, lengths)), seg_starts
            )
            found = first < lengths
            hit_keys = scanning[found]
            time_fired[hit_keys] = True
            j = jA.copy()
            j[hit_keys] = fu[hit_keys] + first[found]
        fired = time_fired | (jA < counts[active])
        if not fired.any():
            break
        active, j, base, time_fired = (
            active[fired], j[fired], base[fired], time_fired[fired]
        )
        tracked[active] = j + 1
        updates[active] += 1
        lut[active] = ts[base + j]
        by_time = active[time_fired]
        t_step[by_time] = np.maximum(t_end - lut[by_time], 0.0) / max(1, budget_left)
        by_freq = ~time_fired
        freq_j = j[by_freq]
        share = (freq_j + 1) / (order[base[by_freq] + freq_j] + 1)
        f_step[active[by_freq]] = np.maximum((scale * share).astype(np.int64), 1)
    return tracked, updates


def accumulate_batch(
    tuples: Sequence[StreamTuple],
    info: BatchInfo,
    accumulator: MicroBatchAccumulator | SketchMicroBatchAccumulator | None,
) -> AccumulatedBatch:
    """Algorithm 1 over a whole interval's tuples, batch-at-a-time.

    With a :class:`MicroBatchAccumulator` this is the paper's budgeted
    CountTree: the quasi-sort order, tracked counts and update totals
    of the per-tuple pseudocode, and the interval's totals feed the
    accumulator's ``N_est``/``K_avg`` history for the next interval.
    With a :class:`SketchMicroBatchAccumulator` the order comes from
    Space-Saving statistics instead (no tree updates).  With ``None`` it
    is the post-sort ablation of Figure 14a: no statistics, and the keys
    exactly sorted at the heartbeat on (exact size, order token),
    descending, each tracked at its exact count.
    """
    if info.t_end <= info.t_start:
        raise ValueError(f"empty batch interval: {info}")
    tree = isinstance(accumulator, MicroBatchAccumulator)
    n = len(tuples)
    if n == 0:
        if tree:
            accumulator.record_interval_stats(0, 0)
        empty = np.empty(0, dtype=np.int64)
        return AccumulatedBatch(info, [], [], empty, empty, empty, 0, 0)

    # -- array extraction: C-driven passes, no per-tuple Python frames ---
    # dict.fromkeys dedups in first-appearance order (the same code
    # assignment a per-tuple setdefault would produce); map() feeds
    # fromiter without generator-frame overhead.
    keys_col = list(map(_GET_KEY, tuples))
    code_of: dict[Key, int] = dict(zip(dict.fromkeys(keys_col), count()))
    keys = list(code_of)  # code -> key (codes assigned in first-appearance order)
    num_keys = len(keys)
    # int16 codes let numpy's stable argsort take its radix path (~8x
    # faster than the int64 comparison sort); cardinality is known
    # before the column is built, so the narrowing is safe.
    code_dtype = np.int16 if num_keys <= 32767 else np.int64
    codes = np.fromiter(map(code_of.__getitem__, keys_col), dtype=code_dtype, count=n)
    # StreamTuple enforces weight >= 1, so total == count iff every
    # weight is 1 — one C-level sum decides the fast path without
    # materializing a weights column.
    total_w = sum(map(_GET_WEIGHT, tuples))
    unit_weights = total_w == n

    # -- per-key chains via one stable argsort ---------------------------
    # Stable sort on the code column groups each key's arrivals while
    # preserving their global (timestamp) order; bincount gives exact
    # group lengths, reduceat exact group weights (= lengths when every
    # tuple weighs 1, the common case).
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=num_keys)
    starts = np.zeros(num_keys, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    if unit_weights:
        sizes = counts
        w_sorted = None
    else:
        weights = np.fromiter(map(_GET_WEIGHT, tuples), dtype=np.int64, count=n)
        w_sorted = weights[order]
        sizes = np.add.reduceat(w_sorted, starts)

    # -- materialize chains in original-object identity ------------------
    # (fromiter builds the object array ~3x faster than slice-assigning
    # a list into np.empty)
    ordered = np.fromiter(tuples, dtype=object, count=n)[order].tolist()
    starts_l = starts.tolist()
    ends_l = (starts + counts).tolist()
    chains = list(map(ordered.__getitem__, map(slice, starts_l, ends_l)))

    tree_updates = 0
    rank = None
    if isinstance(accumulator, SketchMicroBatchAccumulator):
        tracked, desc = accumulator.order(keys_col, code_of, counts)
        tracked_arr = np.array(tracked, dtype=np.int64)
    else:
        if accumulator is None:
            # post-sort: exact counts, nothing to simulate
            tracked_arr = counts
        elif accumulator.exact_updates:
            # Every arrival refreshes the tree: counts are exact and each
            # non-first arrival is one update.
            tracked_arr = counts
            tree_updates = int((counts - 1).sum())
        else:
            # -- Algorithm 1's budget recurrence, all repeated keys at once
            # A key seen once is tracked at 1 with no update; only the
            # repeated keys run the recurrence.
            budget = accumulator.config.budget
            est = accumulator.estimated_tuples()
            f0 = max(1, est // (accumulator.average_keys() * budget))
            repeated = np.flatnonzero(counts > 1)
            tracked_arr = np.ones(num_keys, dtype=np.int64)
            if repeated.size:
                ts = np.fromiter(map(_GET_TS, tuples), dtype=np.float64, count=n)[order]
                tracked_arr[repeated], updates = _simulate_keys(
                    ts, order, starts[repeated], counts[repeated], budget, est, f0,
                    info.t_end,
                )
                tree_updates = int(updates.sum())

        # -- quasi-sort: descending (count, order-token) -----------------
        # The CountTree orders nodes by (count, token) with unique tokens,
        # so its descending traversal equals this sort exactly: one sort
        # on (tracked count, token rank), reversed.  The pair packs into
        # one unique int64, so numpy's default argsort (4-6x faster here
        # than a stable lexsort) gives the one possible order.  Post-sort
        # sorts the same way on exact sizes.  The ranks ride on to
        # Algorithm 3 in the code dtype, narrow on the wire.
        rank = np.empty(num_keys, dtype=code_dtype)
        rank[token_order(keys)] = np.arange(num_keys, dtype=code_dtype)
        primary = sizes if accumulator is None else tracked_arr
        desc = np.argsort(primary * num_keys + rank)[::-1].tolist()
        if tree:
            accumulator.record_interval_stats(n, num_keys)

    if unit_weights:
        chain_weights = None
    else:
        # Per-key weight views aligned with the quasi-sorted keys so the
        # placement kernel never re-extracts tuple weights.
        chain_weights = [
            w_sorted[starts[c] : starts[c] + counts[c]] for c in desc
        ]
    desc_arr = np.array(desc, dtype=np.int64)
    counts_q = counts[desc_arr]
    return AccumulatedBatch(
        info,
        keys=list(map(keys.__getitem__, desc)),
        chains=list(map(chains.__getitem__, desc)),
        sizes=counts_q if unit_weights else sizes[desc_arr],
        counts=counts_q,
        tracked=tracked_arr[desc_arr],
        tuple_count=n,
        total_weight=total_w,
        tree_updates=tree_updates,
        unit_weights=unit_weights,
        chain_weights=chain_weights,
        ranks=None if rank is None else rank[desc_arr],
    )


def plan_greedy(
    partitioner: "PromptBatchPartitioner",
    accumulated: AccumulatedBatch,
    num_blocks: int,
) -> PartitionedBatch:
    """Algorithm 2 (greedy strategy) over an :class:`AccumulatedBatch`.

    Phase 1 places the split keys LPT, diced to chunks (one heap step
    for a key that fits one chunk); phase 2 is the capacity-aware
    zigzag deal, batched one run of passes per numpy step; each block
    is installed in bulk; phase 3 is the partitioner's own rebalance
    pass.  :meth:`PromptBatchPartitioner.partition` runs it for the
    ``greedy`` strategy.

    A key placed whole (every dealt key, and a split key that fits one
    chunk) gets the batch's own chain list: the blocks adopt
    ``accumulated.chains`` rather than copy them, and with them the
    keys' ``accumulated.ranks``.  The placement table holds only the
    keys placed in more than one block; a key it lacks lives in one.
    """
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    info = accumulated.info
    keys, chains, sizes = accumulated.keys, accumulated.chains, accumulated.sizes
    num_keys = len(keys)
    total_weight = accumulated.total_weight
    blocks = [DataBlock(i) for i in range(num_blocks)]
    if not num_keys or total_weight == 0:
        return PartitionedBatch(
            info=info, blocks=blocks, split_keys={}, partitioner_name="prompt"
        )
    placements: dict[Key, AbstractSet[int]] = {}

    p_size = math.ceil(total_weight / num_blocks)
    p_card = max(1, num_keys // num_blocks)
    s_cut = max(1, int((p_size / p_card) * partitioner.config.split_cutoff_scale))
    chunk_cap = max(1, max(p_size // 2, min(p_size - 1, 2 * s_cut)))

    split_mask = sizes > s_cut
    split_indices = np.flatnonzero(split_mask)
    small_indices = np.flatnonzero(~split_mask)

    # Phase 1: LPT placement of split keys, diced to chunks.  The
    # oracle's per-chunk ``min(blocks, ...)`` becomes a heap keyed by the
    # identical (size, cardinality, index) tuple, which carries the
    # block state: phase 1 only grows the popped block, so a peek and a
    # ``heapreplace`` with the grown tuple keep every entry current, and
    # the entries are unique, so the pop order is the oracle's.  Blocks
    # are filled only at the install below, in placement order.
    heap = [(0, 0, index) for index in range(num_blocks)]  # sorted: a heap
    heapreplace = heapq.heapreplace
    queued_at: list[list[int]] = [[] for _ in range(num_blocks)]
    queued_keys: list[list[Key]] = [[] for _ in range(num_blocks)]
    queued_chains: list[list[list[StreamTuple]]] = [[] for _ in range(num_blocks)]
    queued_weights: list[list[int]] = [[] for _ in range(num_blocks)]
    for gi, size in zip(split_indices.tolist(), sizes[split_indices].tolist()):
        key, chain = keys[gi], chains[gi]
        weights = None if accumulated.unit_weights else accumulated.chain_weights[gi]
        # A chunk is the shortest span whose weight reaches ``chunk_cap``
        # (the oracle cursor's rule), so the key is one chunk iff all
        # but its last tuple weigh less than the cap.
        if size - (1 if weights is None else int(weights[-1])) < chunk_cap:
            # the key's only chunk: its own chain, as phase 2 places keys
            block_size, card, ti = heap[0]
            heapreplace(heap, (block_size + size, card + 1, ti))
            queued_at[ti].append(gi)
            queued_keys[ti].append(key)
            queued_chains[ti].append(chain)
            queued_weights[ti].append(size)
            continue
        m = len(chain)
        cum = None if weights is None else np.cumsum(weights)
        placed = set()
        start = base = 0
        while start < m:
            if cum is None:
                end = reached = min(start + chunk_cap, m)
            else:
                end = min(int(np.searchsorted(cum, base + chunk_cap, side="left")) + 1, m)
                reached = int(cum[end - 1])
            weight = reached - base
            block_size, card, ti = heap[0]
            if ti in placed:  # extends this key's fragment in the block
                queued_chains[ti][-1].extend(chain[start:end])
                queued_weights[ti][-1] += weight
            else:
                placed.add(ti)
                queued_at[ti].append(gi)
                queued_keys[ti].append(key)
                queued_chains[ti].append(chain[start:end])
                queued_weights[ti].append(weight)
                card += 1
            heapreplace(heap, (block_size + weight, card, ti))
            start, base = end, reached
        if len(placed) > 1:
            placements[key] = placed

    # Phase 2: the zigzag deal.  Every pass rebuilds the open-block order
    # (ascending, then reversed — so always descending) from sizes *at
    # the pass boundary*, exactly like the oracle's in-loop rebuild, then
    # deals one key per open block.  The order can only change once some
    # open block reaches ``p_size``; even if every pass handed the
    # fullest open block the largest key still to come, that takes more
    # than ``headroom // largest`` passes — so that many passes (plus the
    # one the current sizes already vouch for) are dealt in one step.
    block_sizes = np.zeros(num_blocks, dtype=np.int64)
    for block_size, _, index in heap:
        block_sizes[index] = block_size
    small_sizes = sizes[small_indices]
    num_small = int(small_indices.size)
    targets = np.empty(num_small, dtype=np.int64)
    # Suffix maxima of the (quasi-sorted, so not strictly monotone)
    # small sizes bound the largest key any later pass can deal.
    suffix_max = (
        np.maximum.accumulate(small_sizes[::-1])[::-1] if num_small else small_sizes
    )
    pos = 0
    while pos < num_small:
        open_ixs = np.flatnonzero(block_sizes < p_size)
        remaining = num_small - pos
        if open_ixs.size == 0:
            # All blocks are at capacity and can never reopen: every
            # remaining pass deals the same full descending order.
            targets[pos:] = np.resize(np.arange(num_blocks)[::-1], remaining)
            break
        deal_order = open_ixs[::-1]
        headroom = p_size - 1 - int(block_sizes[open_ixs].max())
        passes = headroom // max(1, int(suffix_max[pos])) + 1
        take = min(passes * int(deal_order.size), remaining)
        dealt = np.resize(deal_order, take)
        targets[pos : pos + take] = dealt
        # (float64 weights sum exactly below 2**53)
        block_sizes += np.bincount(
            dealt, weights=small_sizes[pos : pos + take], minlength=num_blocks
        ).astype(np.int64)
        pos += take

    # Install: each block adopts its phase-1 fragments, then its share
    # of the deal's chain lists (a small key's fragment is its whole
    # chain, new to its block), with their ranks, in one bulk install —
    # no per-key dict entry, set or copy.
    ranks = accumulated.ranks
    for index, block in enumerate(blocks):
        dealt = small_indices[targets == index]
        picks = dealt.tolist()
        block.adopt_chains(
            queued_keys[index] + list(map(keys.__getitem__, picks)),
            queued_chains[index] + list(map(chains.__getitem__, picks)),
            queued_weights[index] + sizes[dealt].tolist(),
            None
            if ranks is None
            else np.concatenate((ranks[queued_at[index]], ranks[dealt])),
        )

    # Phase 3: the partitioner's rebalance pass (the spec runs it too).
    phase1_keys = len(placements)
    partitioner._rebalance_sizes(blocks, placements, p_size)

    # The reference table lists split keys as a full placement table
    # would hold them: phase 1's keys, then the dealt keys, each in
    # quasi-sort order.  A key the rebalance pass split was placed whole
    # and entered the table late; only then is the order rebuilt.
    split = [(k, ixs) for k, ixs in placements.items() if len(ixs) > 1]
    if len(placements) > phase1_keys:
        at = dict(zip(keys, count()))
        split.sort(key=lambda item: (not split_mask[at[item[0]]], at[item[0]]))
    split_keys = {k: tuple(sorted(ixs)) for k, ixs in split}
    return PartitionedBatch(
        info=info,
        blocks=blocks,
        split_keys=split_keys,
        partitioner_name="prompt",
    )
