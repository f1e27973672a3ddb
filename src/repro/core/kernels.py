"""Batch-at-a-time kernels for the ingest → quasi-sort → placement path.

The pure-Python path (``MicroBatchAccumulator`` + ``PromptBatchPartitioner``)
pays Python-interpreter cost *per tuple*: a dict probe, attribute updates
and an eligibility check for every arrival, then ``O(log K)`` AVL node
moves for the updates that fire.  At high arrival rates that per-tuple
constant — not the algorithms — is the single-node ceiling.

This module reimplements the same two algorithms batch-at-a-time on
numpy, exploiting two structural facts:

1. **The CountTree never needs to exist.**  Its nodes are ordered by
   ``(count, _order_token(key))`` and the token is unique per key, so the
   quasi-sorted traversal is a pure function of each key's *final
   tracked count*: sort by ``(count, token)`` descending.  Algorithm 1's
   budget mechanism is a per-key recurrence over that key's arrival
   times, so the final tracked count can be computed by jumping from
   update event to update event (at most ``budget`` of them per key)
   instead of touching every tuple: the frequency trigger's firing index
   is a closed form (``f.updated + f.step - 1``), and only the time
   trigger needs a scan — over disjoint segments, so total scan work
   stays ``O(m)`` per key and is vectorized when segments are long.

2. **Algorithm 2's zigzag deal is batched.**  With a capacity bound the
   pass order is rebuilt (open blocks ascending, then reversed) at every
   pass boundary, so each pass deals one key per open block in
   descending block order — expressible as slice assignments over a
   sorted size array, one numpy step per pass instead of per key.

Both kernels are *bit-compatible* with the pure-Python oracle: identical
quasi-sort order, tracked counts, tree-update totals, block contents,
placements and ``split_keys`` (the differential/property suites enforce
this).  All float comparisons replicate the oracle's exact expressions
(e.g. ``T[j] - last_update >= t_step``, never the algebraically equal
``T[j] >= last_update + t_step``), and every number stored into output
structures is converted back to a Python ``int``/``float``.

numpy is an optional dependency: ``HAVE_NUMPY`` reports availability and
callers fall back to the pure-Python path (with a warning) when absent.
Setting ``REPRO_NUMBA=1`` swaps the per-key simulation for a
numba-jitted dense loop when numba is importable; the flag is advisory
and degrades (with a warning) to the pure-numpy kernels otherwise.
"""

from __future__ import annotations

import heapq
import math
import os
import warnings
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Sequence

from .batch import BatchInfo, DataBlock, PartitionedBatch
from .buffering import AccumulatedBatch, MicroBatchAccumulator
from .plan_stream import LedgerBlock, split_segment_chain
from .tuples import Key, KeyGroup, StreamTuple, _order_token

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

if TYPE_CHECKING:
    from .batch_partitioner import PromptBatchPartitioner

__all__ = [
    "HAVE_NUMPY",
    "USE_NUMBA",
    "KernelIngest",
    "accumulate_batch",
    "plan_greedy",
]

_GET_KEY = attrgetter("key")
_GET_TS = attrgetter("ts")
_GET_WEIGHT = attrgetter("weight")


def _numba_jit():
    """Resolve the optional numba jit behind the ``REPRO_NUMBA=1`` flag."""
    if os.environ.get("REPRO_NUMBA") != "1" or not HAVE_NUMPY:
        return None
    try:  # pragma: no cover - numba is not a baked-in dependency
        import numba
    except ImportError:
        warnings.warn(
            "REPRO_NUMBA=1 but numba is not importable; "
            "running the pure-numpy ingest kernels instead",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return numba.njit(cache=True)  # pragma: no cover


def _simulate_key_dense(T, G, budget, est, f0, t_end):
    """Per-arrival transliteration of Algorithm 1's update mechanism.

    ``T`` holds one key's arrival times (ascending arrival order), ``G``
    the matching 0-based global stream indexes.  Returns the key's final
    tracked count and the number of CountTree updates it consumed.

    This is the reference recurrence (and the numba jit target — the
    body is nopython-compatible); ``_simulate_key_jump`` computes the
    same answer without visiting every arrival.
    """
    fu = 1
    lut = T[0]
    f_step = f0
    t_step = max(t_end - T[0], 0.0) / budget
    budget_left = budget
    tracked = 1
    updates = 0
    for j in range(1, len(T)):
        if budget_left <= 0:
            break
        freq = j + 1
        when = T[j]
        if freq - fu >= f_step:
            tracked = freq
            fu = freq
            lut = when
            budget_left -= 1
            updates += 1
            n_c = G[j] + 1
            share = freq / n_c
            step = (est / budget) * share
            f_step = max(1, int(step))
        elif when - lut >= t_step:
            tracked = freq
            fu = freq
            lut = when
            budget_left -= 1
            updates += 1
            t_step = max(t_end - when, 0.0) / max(1, budget_left)
    return tracked, updates


def _simulate_key_jump(chain, G, base, m, budget, est, f0, t_end):
    """Event-jumping equivalent of :func:`_simulate_key_dense`.

    Between updates, ``f.step`` and ``t.step`` are constant, so the next
    frequency trigger sits at the closed-form arrival index
    ``f.updated + f.step - 1`` and only arrivals *before* it need the
    time-trigger scan (the frequency branch wins ties — it is checked
    first).  At most ``budget`` events fire and the scans cover disjoint
    ranges, so the per-key work is ``O(m)`` worst case and
    ``O(budget)`` when frequency triggers dominate.

    ``chain`` is the key's tuple list (timestamps are read lazily —
    extracting a full timestamp column up front would touch every tuple
    when the recurrence usually needs only a fraction); ``G`` the
    key-sorted global-index array, with this key's arrivals occupying
    ``[base, base + m)``.  The time predicate is written exactly as the
    oracle's ``accept`` computes it — subtraction first — because
    ``a - b >= c`` and ``a >= b + c`` can disagree in floats.
    """
    fu = 1
    lut = chain[0].ts
    f_step = f0
    t_step = max(t_end - lut, 0.0) / budget
    budget_left = budget
    tracked = 1
    updates = 0
    j_last = 0
    while budget_left > 0:
        jA = fu + f_step - 1  # arrival index where the frequency trigger fires
        hi = jA - 1
        if hi > m - 1:
            hi = m - 1
        j = -1
        time_fired = False
        for jj in range(j_last + 1, hi + 1):
            if chain[jj].ts - lut >= t_step:
                j = jj
                time_fired = True
                break
        if j < 0:
            if jA <= m - 1:
                j = jA
            else:
                break  # no trigger can fire on the remaining arrivals
        tracked = j + 1
        fu = j + 1
        lut = chain[j].ts
        budget_left -= 1
        updates += 1
        j_last = j
        if time_fired:
            t_step = max(t_end - lut, 0.0) / max(1, budget_left)
        else:
            n_c = int(G[base + j]) + 1
            share = (j + 1) / n_c
            step = (est / budget) * share
            f_step = max(1, int(step))
    return tracked, updates


def _simulate_key_jump_arr(T, G, base, m, budget, est, f0, t_end):
    """:func:`_simulate_key_jump` over a per-chain timestamp array.

    Used for long chains (``m >= _LONG_CHAIN_THRESHOLD``), where the
    time-trigger scans cover ranges wide enough that one vectorized
    compare per event beats per-element attribute reads.  Scan ranges
    are disjoint, so total vector work stays ``O(m)``.
    """
    fu = 1
    lut = float(T[0])
    f_step = f0
    t_step = max(t_end - lut, 0.0) / budget
    budget_left = budget
    tracked = 1
    updates = 0
    j_last = 0
    while budget_left > 0:
        jA = fu + f_step - 1  # arrival index where the frequency trigger fires
        hi = jA - 1
        if hi > m - 1:
            hi = m - 1
        j = -1
        time_fired = False
        lo = j_last + 1
        if lo <= hi:
            mask = (T[lo : hi + 1] - lut) >= t_step
            k = int(mask.argmax())
            if mask[k]:
                j = lo + k
                time_fired = True
        if j < 0:
            if jA <= m - 1:
                j = jA
            else:
                break  # no trigger can fire on the remaining arrivals
        tracked = j + 1
        fu = j + 1
        lut = float(T[j])
        budget_left -= 1
        updates += 1
        j_last = j
        if time_fired:
            t_step = max(t_end - lut, 0.0) / max(1, budget_left)
        else:
            n_c = int(G[base + j]) + 1
            share = (j + 1) / n_c
            step = (est / budget) * share
            f_step = max(1, int(step))
    return tracked, updates


#: chain length from which the recurrence extracts a per-chain timestamp
#: array and scans it vectorized instead of reading ``.ts`` per element
_LONG_CHAIN_THRESHOLD = 2048

_JITTED_DENSE = None
if (jit := _numba_jit()) is not None:  # pragma: no cover - needs numba
    _JITTED_DENSE = jit(_simulate_key_dense)

#: True when the REPRO_NUMBA flag resolved to a working jit
USE_NUMBA = _JITTED_DENSE is not None


@dataclass(slots=True)
class KernelIngest:
    """One interval's kernel ingest output.

    ``group_sizes`` carries the exact per-group total weights (aligned
    with ``batch.key_groups``) so the placement kernel never re-sums
    tuple weights in Python.  ``unit_weights`` is True when every tuple
    weighs 1 (chunk boundaries become pure arithmetic); otherwise
    ``chain_weights`` holds per-group weight arrays, aligned with
    ``batch.key_groups``.
    """

    batch: AccumulatedBatch
    group_sizes: "np.ndarray"
    unit_weights: bool = True
    chain_weights: Optional[list] = None


def accumulate_batch(
    tuples: Sequence[StreamTuple],
    info: BatchInfo,
    accumulator: MicroBatchAccumulator,
) -> KernelIngest:
    """Algorithm 1 over a whole interval's tuples, batch-at-a-time.

    Produces the same :class:`AccumulatedBatch` the accumulator's
    ``start_interval``/``accept_all``/``finalize`` cycle would — same
    quasi-sort order, tracked counts and update totals — and feeds the
    interval's totals into the accumulator's ``N_est``/``K_avg`` history
    so cross-batch adaptation stays identical.
    """
    if not HAVE_NUMPY:
        raise RuntimeError("numpy ingest kernel requested but numpy is absent")
    if info.t_end <= info.t_start:
        raise ValueError(f"empty batch interval: {info}")
    config = accumulator.config
    budget = config.budget
    est = accumulator.estimated_tuples()
    f0 = max(1, est // (accumulator.average_keys() * budget))

    n = len(tuples)
    if n == 0:
        accumulator.record_interval_stats(0, 0)
        batch = AccumulatedBatch(
            info=info, key_groups=[], tuple_count=0, total_weight=0, tree_updates=0
        )
        return KernelIngest(batch=batch, group_sizes=np.empty(0, dtype=np.int64))

    # -- array extraction: C-driven passes, no per-tuple Python frames ---
    # dict.fromkeys dedups in first-appearance order (the same code
    # assignment a per-tuple setdefault would produce); map() feeds
    # fromiter without generator-frame overhead.
    keys_col = list(map(_GET_KEY, tuples))
    code_of: dict[Key, int] = {k: i for i, k in enumerate(dict.fromkeys(keys_col))}
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
    arr = np.fromiter(tuples, dtype=object, count=n)[order]
    starts_l = starts.tolist()
    counts_l = counts.tolist()
    chains = [
        arr[starts_l[c] : starts_l[c] + counts_l[c]].tolist()
        for c in range(num_keys)
    ]

    # -- Algorithm 1's budget recurrence, one key at a time --------------
    tree_updates = 0
    if accumulator.exact_updates:
        # Every arrival refreshes the tree: counts are exact and each
        # non-first arrival is one update.
        tracked = counts_l
        tree_updates = int((counts - 1).sum())
    else:
        tracked = [0] * num_keys
        t_end = info.t_end
        if _JITTED_DENSE is not None:  # pragma: no cover - needs numba
            ts_sorted = np.fromiter(map(_GET_TS, tuples), dtype=np.float64, count=n)[
                order
            ]
            for c in range(num_keys):
                s = starts_l[c]
                e = s + counts_l[c]
                if e - s == 1:
                    tracked[c] = 1
                    continue
                count_c, updates_c = _JITTED_DENSE(
                    ts_sorted[s:e], order[s:e], budget, est, f0, t_end
                )
                tracked[c] = int(count_c)
                tree_updates += int(updates_c)
        else:
            for c in range(num_keys):
                m_c = counts_l[c]
                if m_c == 1:
                    tracked[c] = 1
                    continue
                if m_c >= _LONG_CHAIN_THRESHOLD:
                    chain_ts = np.fromiter(
                        map(_GET_TS, chains[c]), dtype=np.float64, count=m_c
                    )
                    count_c, updates_c = _simulate_key_jump_arr(
                        chain_ts, order, starts_l[c], m_c, budget, est, f0, t_end
                    )
                else:
                    count_c, updates_c = _simulate_key_jump(
                        chains[c], order, starts_l[c], m_c, budget, est, f0, t_end
                    )
                tracked[c] = count_c
                tree_updates += updates_c

    # -- quasi-sort: descending (count, order-token) ---------------------
    # The CountTree orders nodes by (count, token) with unique tokens,
    # so its descending traversal equals this sort exactly.
    tokens = [_order_token(k) for k in keys]
    desc = sorted(range(num_keys), key=lambda c: (tracked[c], tokens[c]), reverse=True)

    groups = [
        KeyGroup(key=keys[c], tuples=chains[c], tracked_count=tracked[c])
        for c in desc
    ]
    batch = AccumulatedBatch(
        info=info,
        key_groups=groups,
        tuple_count=n,
        total_weight=total_w,
        tree_updates=tree_updates,
    )
    accumulator.record_interval_stats(n, num_keys)
    if unit_weights:
        chain_weights = None
    else:
        # Per-group weight views aligned with the quasi-sorted groups so
        # the placement kernel never re-extracts tuple weights.
        chain_weights = [
            w_sorted[starts[c] : starts[c] + counts[c]] for c in desc
        ]
    return KernelIngest(
        batch=batch,
        group_sizes=sizes[np.array(desc, dtype=np.int64)],
        unit_weights=unit_weights,
        chain_weights=chain_weights,
    )


def plan_greedy(
    partitioner: "PromptBatchPartitioner",
    key_groups: Sequence[KeyGroup],
    num_blocks: int,
    info: BatchInfo,
    sizes: Optional["np.ndarray"] = None,
    *,
    unit_weights: bool = False,
    chain_weights: Optional[Sequence] = None,
) -> PartitionedBatch:
    """Algorithm 2 (greedy strategy) over a sorted size array.

    Mirrors ``PromptBatchPartitioner.partition(strategy="greedy")``
    phase by phase: LPT dicing of split keys (chunk boundaries via
    ``searchsorted`` on each hot chain's cumulative weight), the
    capacity-aware zigzag deal batched one *pass* per numpy step, and
    the partitioner's own rebalance pass — so the output is identical
    by construction, not by approximation.  Placement runs on
    :class:`~repro.core.plan_stream.LedgerBlock` segment ledgers, each
    materialized into a real block once the placement is final.

    ``sizes`` may carry the exact per-group weights (as produced by
    :func:`accumulate_batch`); otherwise they are summed here.  When the
    caller vouches ``unit_weights`` (every tuple weighs 1), chunk
    boundaries reduce to arithmetic; else ``chain_weights`` (per-group
    weight arrays aligned with ``key_groups``) avoids re-extracting
    tuple weights for the cumulative sums.
    """
    if not HAVE_NUMPY:
        raise RuntimeError("numpy placement kernel requested but numpy is absent")
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    num_groups = len(key_groups)
    if sizes is None:
        sizes = np.fromiter((g.size for g in key_groups), dtype=np.int64, count=num_groups)
    total_weight = int(sizes.sum())
    if not num_groups or total_weight == 0:
        return PartitionedBatch(
            info=info,
            blocks=[DataBlock(i) for i in range(num_blocks)],
            split_keys={},
            partitioner_name="prompt",
        )
    blocks = [LedgerBlock(i) for i in range(num_blocks)]
    placements: dict[Key, set[int]] = {}

    p_size = math.ceil(total_weight / num_blocks)
    p_card = max(1, num_groups // num_blocks)
    s_cut = max(1, int((p_size / p_card) * partitioner.config.split_cutoff_scale))
    chunk_cap = max(1, max(p_size // 2, min(p_size - 1, 2 * s_cut)))

    split_mask = sizes > s_cut
    split_indices = np.flatnonzero(split_mask)
    small_indices = np.flatnonzero(~split_mask)

    # Phase 1: LPT placement of split keys, diced to chunks.  Chunk ends
    # come from searchsorted over the chain's cumulative weight — the
    # same shortest-prefix-reaching-the-cap rule as the oracle's cursor.
    # The oracle's per-chunk ``min(blocks, ...)`` becomes a heap keyed
    # by the identical (size, cardinality, index) tuple; phase 1 only
    # mutates the popped block, so every heap entry stays current and
    # the pop equals the oracle's min.
    heap = [(b.size, b.cardinality, b.index) for b in blocks]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    for gi in split_indices:
        gi = int(gi)
        group = key_groups[gi]
        chain = group.tuples
        placed = placements.setdefault(group.key, set())
        m = len(chain)
        if unit_weights:
            # Unit weights: the shortest prefix reaching the cap is
            # exactly ``chunk_cap`` tuples — no cumulative sum needed.
            start = 0
            while start < m:
                end = min(start + chunk_cap, m)
                ti = heappop(heap)[2]
                target = blocks[ti]
                target.add_segment(group.key, chain, start, end, end - start)
                heappush(heap, (target.size, target.cardinality, ti))
                placed.add(ti)
                start = end
            continue
        if chain_weights is not None:
            cum = np.cumsum(chain_weights[gi])
        else:
            cum = np.cumsum(
                np.fromiter((t.weight for t in chain), dtype=np.int64, count=m)
            )
        start = 0
        base = 0
        while start < m:
            end = min(int(np.searchsorted(cum, base + chunk_cap, side="left")) + 1, m)
            chunk_weight = int(cum[end - 1]) - base
            ti = heappop(heap)[2]
            target = blocks[ti]
            target.add_segment(group.key, chain, start, end, chunk_weight)
            heappush(heap, (target.size, target.cardinality, ti))
            placed.add(ti)
            base = int(cum[end - 1])
            start = end

    # Phase 2: the zigzag deal, one pass per step.  Every pass rebuilds
    # the open-block order (ascending, then reversed — so always
    # descending) from sizes *at the pass boundary*, exactly like the
    # oracle's in-loop rebuild, then deals one key per open block.
    block_sizes = np.fromiter((b.size for b in blocks), dtype=np.int64, count=num_blocks)
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
            tail = np.resize(np.arange(num_blocks)[::-1], remaining)
            targets[pos:] = tail
            break
        deal_order = open_ixs[::-1]
        num_open = int(deal_order.size)
        if remaining > 2 * num_open:
            # Bulk tail: if even the worst case (every later pass deals
            # this suffix's largest key to the fullest open block)
            # cannot close a block before the smalls run out, the open
            # set — hence the deal order — is constant from here on.
            passes = -(-remaining // num_open)
            if (
                int(block_sizes[open_ixs].max())
                + passes * int(suffix_max[pos])
                < p_size
            ):
                tail = np.resize(deal_order, remaining)
                targets[pos:] = tail
                break
        take = min(num_open, remaining)
        sel = deal_order[:take]
        targets[pos : pos + take] = sel
        block_sizes[sel] += small_sizes[pos : pos + take]
        pos += take
    for i in range(num_small):
        group = key_groups[int(small_indices[i])]
        target = int(targets[i])
        blocks[target].install_fragment(
            group.key, group.tuples, int(small_sizes[i])
        )
        placements.setdefault(group.key, set()).add(target)

    # Phase 3: identical by reuse — the oracle's own rebalance pass runs
    # on the segment ledgers, with the split rule in segment space.
    partitioner._rebalance_sizes(
        blocks, placements, p_size, split=split_segment_chain
    )

    split_keys = {
        k: tuple(sorted(ixs)) for k, ixs in placements.items() if len(ixs) > 1
    }
    return PartitionedBatch(
        info=info,
        blocks=[ledger.materialize() for ledger in blocks],
        split_keys=split_keys,
        partitioner_name="prompt",
    )
