"""Algorithms 1 and 2 of the Prompt paper, transcribed as printed (Section 4).

This is the oracle the array kernels of :mod:`repro.core.kernels` are
tested against.  It is written for the reader, not for speed:

- Algorithm 1 is a per-tuple loop.  The HTable is a dict holding one
  record per key (its chain, ``freq``, ``freq_updated``, last update
  time, ``budget_left``, ``f.step`` and ``t.step``); the CountTree is
  only ever read through its in-order traversal, so it is the
  ``sorted`` on ``(tracked count, order token)``, descending, at the
  heartbeat.  ``N_est`` and ``K_avg`` come from a history that runs
  across batches.
- Algorithm 2's greedy strategy places eagerly into ``DataBlock``s:
  LPT over the split keys' chunks (``min`` over the blocks per chunk),
  the capacity-aware zigzag deal of the other keys, and the shared
  rebalance pass of :class:`~repro.core.batch_partitioner.PromptBatchPartitioner`.
- :func:`simulate_key_dense` is Algorithm 1's update mechanism for a
  single key, the reference for the kernels' batched recurrence.
"""

from __future__ import annotations

import math
from collections import deque

from repro.core.batch import BatchInfo, DataBlock, PartitionedBatch
from repro.core.buffering import AccumulatedBatch
from repro.core.config import AccumulatorConfig
from repro.core.tuples import KeyGroup, _order_token
from repro.partitioners.prompt import PromptPartitioner


class SpecAccumulator:
    """Algorithm 1: frequency-aware buffering, one tuple at a time."""

    def __init__(
        self, config: AccumulatorConfig | None = None, *, exact_updates: bool = False
    ) -> None:
        self.config = config or AccumulatorConfig()
        self.exact_updates = exact_updates
        self.tuple_history: deque[int] = deque(maxlen=self.config.history_window)
        self.key_history: deque[int] = deque(maxlen=self.config.history_window)

    def n_est(self) -> int:
        if not self.tuple_history:
            return self.config.expected_tuples
        return max(1, sum(self.tuple_history) // len(self.tuple_history))

    def k_avg(self) -> int:
        if not self.key_history:
            return self.config.expected_keys
        return max(1, sum(self.key_history) // len(self.key_history))

    def buffer(self, tuples, info: BatchInfo) -> AccumulatedBatch:
        """Buffer one interval's tuples; the heartbeat returns the batch."""
        if info.t_end <= info.t_start:
            raise ValueError(f"empty batch interval: {info}")
        budget = self.config.budget
        n_est = self.n_est()
        f_init = max(1, n_est // (self.k_avg() * budget))
        htable: dict = {}
        n_c = 0  # tuples received so far (N_C)
        weight = 0
        updates = 0  # CountTree repositionings
        for t in tuples:
            n_c += 1
            weight += t.weight
            now = t.ts
            r = htable.get(t.key)
            if r is None:  # lines 24-30: a new key enters HTable and CountTree
                htable[t.key] = {
                    "chain": [t],
                    "freq": 1,
                    "freq_updated": 1,
                    "last_update": now,
                    "budget_left": budget,
                    "f_step": f_init,
                    "t_step": max(info.t_end - now, 0.0) / budget,
                }
                continue
            r["chain"].append(t)
            r["freq"] += 1
            if self.exact_updates:  # the ablation: every tuple updates the tree
                r["freq_updated"] = r["freq"]
                r["last_update"] = now
                updates += 1
                continue
            if r["budget_left"] <= 0:
                continue  # not eligible: budget spent for this interval
            if r["freq"] - r["freq_updated"] >= r["f_step"]:  # frequency trigger
                r["freq_updated"] = r["freq"]
                r["last_update"] = now
                r["budget_left"] -= 1
                updates += 1
                r["f_step"] = max(1, int((n_est / budget) * (r["freq"] / n_c)))
            elif now - r["last_update"] >= r["t_step"]:  # time trigger
                r["freq_updated"] = r["freq"]
                r["last_update"] = now
                r["budget_left"] -= 1
                updates += 1
                r["t_step"] = max(info.t_end - now, 0.0) / max(1, r["budget_left"])
        # the heartbeat: the CountTree's descending in-order traversal
        traversal = sorted(
            htable.items(),
            key=lambda kr: (kr[1]["freq_updated"], _order_token(kr[0])),
            reverse=True,
        )
        groups = [KeyGroup(k, r["chain"], r["freq_updated"]) for k, r in traversal]
        self.tuple_history.append(n_c)
        self.key_history.append(len(htable))
        return AccumulatedBatch(info, groups, n_c, weight, updates)


def plan_greedy(planner, key_groups, num_blocks: int, info: BatchInfo) -> PartitionedBatch:
    """Algorithm 2, greedy strategy, over quasi-sorted ``key_groups``.

    ``planner`` is a ``PromptBatchPartitioner``: its config gives the
    split cutoff scale and its ``_rebalance_sizes`` is phase 3.
    """
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    blocks = [DataBlock(i) for i in range(num_blocks)]
    placements: dict = {}
    total = sum(g.size for g in key_groups)
    if not key_groups or total == 0:
        return PartitionedBatch(info, blocks, {}, partitioner_name="prompt")
    # lines 1-3: expected block size and cardinality, split cutoff
    p_size = math.ceil(total / num_blocks)
    p_card = max(1, len(key_groups) // num_blocks)
    s_cut = max(1, int((p_size / p_card) * planner.config.split_cutoff_scale))
    chunk_cap = max(1, max(p_size // 2, min(p_size - 1, 2 * s_cut)))

    # phase 1: each split key, cut into chunks of weight >= chunk_cap
    # (the last takes the rest), chunk by chunk onto the least loaded block
    for g in key_groups:
        if g.size <= s_cut:
            continue
        placed = placements.setdefault(g.key, set())
        start = 0
        while start < len(g.tuples):
            end, acc = start, 0
            while end < len(g.tuples) and acc < chunk_cap:
                acc += g.tuples[end].weight
                end += 1
            target = min(blocks, key=lambda b: (b.size, b.cardinality, b.index))
            target.add_fragment(g.key, g.tuples[start:end])
            placed.add(target.index)
            start = end

    # phase 2: deal the other keys one per open block, reversing each
    # pass; blocks at capacity sit a pass out, unless all are full
    order: list[int] = []
    i = 0
    for g in key_groups:
        if g.size > s_cut:
            continue
        if i >= len(order):
            order = [b.index for b in blocks if b.size < p_size]
            order = order or [b.index for b in blocks]
            order.reverse()
            i = 0
        blocks[order[i]].add_fragment(g.key, g.tuples)
        placements.setdefault(g.key, set()).add(order[i])
        i += 1

    # phase 3: drain overfull blocks (shared with the kernels)
    planner._rebalance_sizes(blocks, placements, p_size)
    split_keys = {k: tuple(sorted(ix)) for k, ix in placements.items() if len(ix) > 1}
    return PartitionedBatch(info, blocks, split_keys, partitioner_name="prompt")


class SpecPromptPartitioner(PromptPartitioner):
    """``PromptPartitioner`` with Algorithms 1-2 taken from this spec.

    Algorithm 3 and everything else is inherited, so an engine run on
    this partitioner is the reference run for ``prompt``, ``prompt-exact``
    and ``prompt-zigzag`` (whose Algorithm 2 is the ``zigzag`` planner).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.spec = SpecAccumulator(
            self.config.accumulator, exact_updates=self.exact_updates
        )

    def reset(self) -> None:
        super().reset()
        self.spec = SpecAccumulator(
            self.config.accumulator, exact_updates=self.exact_updates
        )

    def partition(self, tuples, num_blocks: int, info: BatchInfo) -> PartitionedBatch:
        accumulated = self.spec.buffer(tuples, info)
        if self.batch_partitioner.strategy == "greedy":
            batch = plan_greedy(
                self.batch_partitioner, accumulated.key_groups, num_blocks, info
            )
        else:
            batch = self.batch_partitioner.partition(
                accumulated.key_groups, num_blocks, info
            )
        self.last_batch = accumulated
        return batch


def simulate_key_dense(T, G, budget, est, f0, t_end):
    """Algorithm 1's update mechanism for one key, one arrival at a time.

    ``T`` holds the key's arrival times in arrival order, ``G`` the
    matching 0-based stream indexes.  Returns the key's final tracked
    count and the number of CountTree updates it spent.
    """
    fu = 1
    lut = T[0]
    f_step = f0
    t_step = max(t_end - T[0], 0.0) / budget
    budget_left = budget
    updates = 0
    for j in range(1, len(T)):
        if budget_left <= 0:
            break
        freq = j + 1
        if freq - fu >= f_step:
            fu, lut = freq, T[j]
            budget_left -= 1
            updates += 1
            f_step = max(1, int((est / budget) * (freq / (G[j] + 1))))
        elif T[j] - lut >= t_step:
            fu, lut = freq, T[j]
            budget_left -= 1
            updates += 1
            t_step = max(t_end - T[j], 0.0) / max(1, budget_left)
    return fu, updates
