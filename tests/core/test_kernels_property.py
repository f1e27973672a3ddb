"""Property suite: the numpy ingest/placement kernels vs the paper's pseudocode.

The kernels in :mod:`repro.core.kernels` promise *bit-compatibility*
with Algorithms 1 and 2 as printed (transcribed tuple by tuple in
``tests/oracle/prompt_spec.py``) — not statistical closeness.  This
suite hammers that promise with >1000 seeded random instances:

- Zipf-skewed key populations across cardinalities, batch sizes and
  block counts, including weighted tuples (the non-unit placement
  paths: cumulative-weight dicing, ``chain_weights``, weighted shave);
- multi-batch replays with key *churn* (the key universe drifts
  between intervals), so the accumulator's adaptive ``N_est``/``K_avg``
  history — which feeds Algorithm 1's trigger steps — must evolve
  identically along the whole trajectory;
- duplicate timestamps and boundary arrivals, where only exact float
  predicates (``a - b >= c``, never ``a >= b + c``) keep the paths in
  agreement.

Every instance compares the full decision surface: quasi-sort order,
tracked counts, tree-update totals, per-block fragment contents *and
insertion order*, split-key reference tables (including dict order),
and chain object identity (kernels must not copy tuples; blocks adopt
the kernel's own chain lists, never a list of the lazily built
``key_groups`` view).

The batched budget recurrence is also cross-checked directly against
the spec's dense per-arrival recurrence, key by key over whole batches,
and the ``prompt-postsort`` and ``prompt-sketch`` variants against the
spec's Algorithm 2 fed each variant's own key order.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.core import kernels
from repro.core.batch import BatchInfo
from repro.core.batch_partitioner import PromptBatchPartitioner
from repro.core.buffering import MicroBatchAccumulator
from repro.core.sketches import SpaceSavingSketch
from repro.core.tuples import KeyGroup, StreamTuple, group_by_key, sorted_key_groups
from repro.partitioners import make_partitioner
from repro.partitioners.prompt import PromptPartitioner

from ..oracle import prompt_spec
from ..oracle.prompt_spec import SpecPromptPartitioner

#: scenarios x batches = instances; the accept gate is >= 1000
NUM_SCENARIOS = 250
BATCHES_PER_SCENARIO = 4


def _gen_batch(rng, index, n, num_keys, key_base, weighted):
    """One interval of Zipf-ish tuples with optional weights.

    ``key_base`` shifts the key universe (churn): later batches draw
    from a partially disjoint population, so cross-batch adaptation
    sees genuinely new keys, not a reshuffle.
    """
    t_start = float(index)
    t_end = t_start + 1.0
    ts = sorted(rng.uniform(t_start, t_end) for _ in range(n))
    if n >= 2 and rng.random() < 0.3:
        # duplicate timestamps: tie-handling must match exactly
        ts[n // 2] = ts[n // 2 - 1]
    out = []
    for i in range(n):
        rank = int(rng.paretovariate(1.1)) % num_keys
        weight = rng.randint(1, 5) if weighted else 1
        out.append(
            StreamTuple(ts=ts[i], key=f"k{key_base + rank}", weight=weight)
        )
    return out, BatchInfo(index=index, t_start=t_start, t_end=t_end)


def _blocks(batch):
    """Block contents in key order, and the split-key table in its order."""
    blocks = [
        (
            b.index,
            b.size,
            b.cardinality,
            [
                (key, [(t.ts, t.key, t.value, t.weight) for t in b.fragment(key)])
                for key in b.keys
            ],
        )
        for b in batch.blocks
    ]
    return pickle.dumps((blocks, list(batch.split_keys.items())))


def _snapshot(partitioner, batch):
    accumulated = partitioner.last_batch
    return pickle.dumps(
        (
            _blocks(batch),
            [(g.key, g.tracked_count, len(g.tuples)) for g in accumulated.key_groups],
            (accumulated.tree_updates, accumulated.total_weight),
        )
    )


def _replays(scenarios):
    """``(scenario, num_blocks, batches)`` for each of ``scenarios``.

    Weights, cardinality, block count and batch sizes vary with the
    scenario number; the key universe churns between batches.
    """
    for scenario in scenarios:
        rng = random.Random(9000 + scenario)
        num_keys = 3 + (scenario * 29) % 120
        batches = []
        key_base = 0
        for index in range(BATCHES_PER_SCENARIO):
            n = 50 + (scenario * 137 + index * 311) % 700
            batches.append(
                _gen_batch(rng, index, n, num_keys, key_base, scenario % 4 == 3)
            )
            key_base += rng.choice((0, 0, num_keys // 3, num_keys))  # churn
        yield scenario, 2 + scenario % 7, batches


@pytest.mark.parametrize("chunk", range(5))
def test_kernel_matches_oracle_property(chunk):
    """>=1000 random multi-batch instances, byte-identical outputs."""
    per_chunk = NUM_SCENARIOS // 5
    replays = _replays(range(chunk * per_chunk, (chunk + 1) * per_chunk))
    for scenario, num_blocks, batches in replays:
        oracle = SpecPromptPartitioner()
        kernel = PromptPartitioner()
        for index, (tuples, info) in enumerate(batches):
            oracle_batch = oracle.partition(tuples, num_blocks, info)
            kernel_batch = kernel.partition(tuples, num_blocks, info)
            assert _snapshot(oracle, oracle_batch) == _snapshot(
                kernel, kernel_batch
            ), f"scenario={scenario} batch={index}"
            # chains must hold the *same* tuple objects, not copies
            for og, kg in zip(
                oracle.last_batch.key_groups, kernel.last_batch.key_groups
            ):
                assert all(a is b for a, b in zip(og.tuples, kg.tuples))
            # ... but no block fragment may be a list of the view: the
            # rebalance pass extends fragments in place
            chains = {id(g.tuples) for g in kernel.last_batch.key_groups}
            assert not any(
                id(b.fragment(k)) in chains
                for b in kernel_batch.blocks
                for k in b.keys
            ), f"scenario={scenario} batch={index}"


def _mixed_batch(rng, index, num_blocks, weight_mode):
    """One interval whose Algorithm 2 phase 1 mixes both LPT paths.

    Many small keys, a few medium keys and one to three hot keys sized
    at 0.6-2.5 blocks, in shuffled arrival order: the medium keys and
    some hot ones are split keys that fit one chunk, the others are
    diced into several, and the quasi-sort interleaves the two kinds.
    ``weight_mode`` 0 gives unit weights, 1 random weights 1-5 and 2
    weights alternating 1, 4 along each key's chain, which moves chunk
    boundaries off the unit grid.  Keys named ``k*`` recur across
    batches; the rest are new each batch.
    """
    t_start = float(index)
    t_end = t_start + 1.0
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(20, 200))]
    sizes += [rng.randint(10, 60) for _ in range(rng.randint(2, 10))]
    base = sum(sizes)
    sizes += [
        int(rng.uniform(0.6, 2.5) * base / num_blocks) + 1
        for _ in range(rng.randint(1, 3))
    ]
    rng.shuffle(sizes)
    out = []
    for k, m in enumerate(sizes):
        key = f"k{k}" if k % 3 == 0 else f"b{index}_{k}"
        for i in range(m):
            if weight_mode == 0:
                weight = 1
            elif weight_mode == 1:
                weight = rng.randint(1, 5)
            else:
                weight = (1, 4)[i % 2]
            out.append(
                StreamTuple(ts=rng.uniform(t_start, t_end), key=key, weight=weight)
            )
    rng.shuffle(out)
    return out, BatchInfo(index=index, t_start=t_start, t_end=t_end)


@pytest.mark.parametrize("chunk", range(5))
def test_kernel_matches_oracle_on_mixed_phase1_keys(chunk):
    """Split keys that fit one chunk between keys diced into several,
    under unit, random and alternating weights: byte-identical outputs
    over ``NUM_SCENARIOS`` x ``BATCHES_PER_SCENARIO`` instances."""
    per_chunk = NUM_SCENARIOS // 5
    for scenario in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        rng = random.Random(12000 + scenario)
        num_blocks = 2 + scenario % 7
        oracle = SpecPromptPartitioner()
        kernel = PromptPartitioner()
        for index in range(BATCHES_PER_SCENARIO):
            tuples, info = _mixed_batch(rng, index, num_blocks, scenario % 3)
            oracle_batch = oracle.partition(tuples, num_blocks, info)
            kernel_batch = kernel.partition(tuples, num_blocks, info)
            assert _snapshot(oracle, oracle_batch) == _snapshot(
                kernel, kernel_batch
            ), f"scenario={scenario} batch={index}"


def _groups(accumulated):
    return [
        (g.key, g.tracked_count, list(map(id, g.tuples)))
        for g in accumulated.key_groups
    ]


def test_key_count_builds_no_view_and_a_late_view_equals_the_oracle():
    """``key_count`` is stored; the ``key_groups`` view is built on first
    read, and read after placement it still equals the oracle's groups,
    tuple object for tuple object."""
    for _, num_blocks, batches in _replays(range(60)):
        oracle = SpecPromptPartitioner()
        kernel = PromptPartitioner()
        for tuples, info in batches:
            oracle.partition(tuples, num_blocks, info)
            kernel.partition(tuples, num_blocks, info)
            accumulated = kernel.last_batch
            assert accumulated.key_count == oracle.last_batch.key_count
            assert accumulated._key_groups is None, "key_count built the view"
            assert _groups(accumulated) == _groups(oracle.last_batch)


def test_unsplit_keys_keep_the_kernels_own_chain_lists():
    """Every key the plan leaves unsplit holds the list the ingest sliced
    for it: adopted, not copied."""
    adopted = 0
    for _, num_blocks, batches in _replays(range(NUM_SCENARIOS)):
        accumulator = MicroBatchAccumulator()
        planner = PromptBatchPartitioner()
        for tuples, info in batches:
            ingest = kernels.accumulate_batch(tuples, info, accumulator)
            own = dict(zip(ingest.keys, ingest.chains))
            batch = kernels.plan_greedy(planner, ingest, num_blocks)
            for block in batch.blocks:
                for key, fragment in block.by_key.items():
                    if key not in batch.split_keys:
                        assert fragment is own[key], (info, key)
                        adopted += 1
    assert adopted > 10_000


def test_kernel_matches_oracle_exact_updates():
    """The prompt-exact ablation (no budget) stays bit-identical too, and
    its order is exactly sorted by frequency, weighted batches included."""
    for scenario in range(25):
        rng = random.Random(4400 + scenario)
        oracle = SpecPromptPartitioner(exact_updates=True)
        kernel = PromptPartitioner(exact_updates=True)
        for index in range(3):
            tuples, info = _gen_batch(
                rng, index, 300, 40, 0, weighted=scenario % 3 == 2
            )
            oracle_batch = oracle.partition(tuples, 4, info)
            kernel_batch = kernel.partition(tuples, 4, info)
            assert _snapshot(oracle, oracle_batch) == _snapshot(kernel, kernel_batch)
            assert kernel.last_batch.sort_quality() == 1.0


def test_kernel_buffering_feeds_the_zigzag_planner_identically():
    """``strategy="zigzag"`` keeps its Python planner and buffers
    through the Algorithm 1 kernel: same groups in, same blocks out."""
    for scenario in range(25):
        rng = random.Random(5500 + scenario)
        oracle = SpecPromptPartitioner(strategy="zigzag")
        kernel = PromptPartitioner(strategy="zigzag")
        for index in range(3):
            tuples, info = _gen_batch(
                rng, index, 300, 40, 0, weighted=scenario % 3 == 2
            )
            oracle_batch = oracle.partition(tuples, 4, info)
            kernel_batch = kernel.partition(tuples, 4, info)
            assert _snapshot(oracle, oracle_batch) == _snapshot(kernel, kernel_batch)


def test_empty_and_single_tuple_batches_match():
    oracle = SpecPromptPartitioner()
    kernel = PromptPartitioner()
    solo = [StreamTuple(ts=0.5, key="only")]
    for tuples in ([], solo):
        info = BatchInfo(index=0, t_start=0.0, t_end=1.0)
        oracle_batch = oracle.partition(tuples, 3, info)
        kernel_batch = kernel.partition(tuples, 3, info)
        assert _snapshot(oracle, oracle_batch) == _snapshot(kernel, kernel_batch)
        oracle.reset()
        kernel.reset()


def _recurrence_batch(rng, trial):
    """One batch for the recurrence: ``(T, G, starts, counts, t_end)``.

    ``T`` holds arrival times in arrival order, ``G`` the key sort's
    permutation; keys of 2 to 2,061 arrivals (the old long-chain cutoff
    plus 13) interleave at random.  Arrival times are shuffled, as late
    tuples make them, and some repeat exactly or sit on a grid.
    """
    lengths = [rng.choice((2, 3, 7, 50, 400)) for _ in range(rng.randint(1, 12))]
    if trial % 10 == 0:
        lengths.append(2048 + 13)
    codes = [c for c, m in enumerate(lengths) for _ in range(m)]
    rng.shuffle(codes)
    if trial % 4 == 1:
        # a dyadic grid up to and past ``t_end``: gaps equal to
        # ``t_step`` exactly, so ``>=`` and ``>`` disagree
        t_end = 1.0
        ts = sorted(rng.randrange(20) / 16 for _ in codes)
    else:
        t_end = rng.uniform(0.5, 2.0)
        ts = sorted(rng.uniform(0.0, t_end) for _ in codes)
    if trial % 3 == 0:  # out-of-order arrivals
        for _ in range(len(ts) // 4):
            i, j = rng.randrange(len(ts)), rng.randrange(len(ts))
            ts[i], ts[j] = ts[j], ts[i]
    if trial % 5 == 0:  # duplicate arrival times
        for i in range(1, len(ts), 7):
            ts[i] = ts[i - 1]
    order = np.argsort(np.asarray(codes), kind="stable")
    counts = np.asarray(lengths, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.asarray(ts, dtype=np.float64), order, starts, counts, t_end


def test_simulator_variants_agree():
    """The batched recurrence vs the spec's dense per-arrival recurrence.

    Whole multi-key batches — shuffled, duplicate and grid arrival
    times, chains past 2,048 arrivals, budgets 1 to 40, random trigger
    seeds —
    must give every key the dense recurrence's identical (tracked
    count, tree updates) pair.
    """
    rng = random.Random(77)
    keys = 0
    for trial in range(200):
        T, order, starts, counts, t_end = _recurrence_batch(rng, trial)
        budget = (1, 2, 4, 8)[trial % 16 // 4] if trial % 4 == 1 else 1 + trial % 40
        est = rng.randint(1, 5000)
        f0 = rng.randint(1, 10)
        tracked, updates = kernels._simulate_keys(
            T[order], order, starts, counts, budget, est, f0, t_end
        )
        for i, (start, m) in enumerate(zip(starts.tolist(), counts.tolist())):
            G = order[start : start + m]
            dense = prompt_spec.simulate_key_dense(T[G], G, budget, est, f0, t_end)
            assert (int(tracked[i]), int(updates[i])) == dense, (trial, i, m)
            keys += 1
    assert keys > 1000


def _sketch_order(tuples, capacity):
    """``prompt-sketch``'s key order: heavy hitters in Space-Saving order
    (tracked at their estimate), then the rest in first-appearance order."""
    sketch = SpaceSavingSketch(capacity)
    for t in tuples:
        sketch.add(t.key)
    chains = group_by_key(tuples)
    # a counter may hold a later, equal key object; blocks keep the
    # first arrival's, and the snapshots pickle identity
    first = dict(zip(chains, chains))
    head = [
        KeyGroup(first[k], chains.pop(k), estimate) for k, estimate in sketch.items()
    ]
    return head + [KeyGroup(k, chain, len(chain)) for k, chain in chains.items()]


@pytest.mark.parametrize("variant", ["prompt-postsort", "prompt-sketch"])
def test_variants_match_the_spec_plan_on_their_own_order(variant):
    """Each variant's blocks are the spec's Algorithm 2 over the key order
    the variant defines: the exact sort for ``prompt-postsort``, the
    sketch order for ``prompt-sketch`` (whose ``last_batch`` must list
    that order, with the sketch's tracked counts).  The registry's
    sketch holds 256 counters, more than a replay has keys, so most
    scenarios shrink it to 1-32 counters to give the order a tail."""
    for scenario, num_blocks, batches in _replays(range(NUM_SCENARIOS)):
        kernel = make_partitioner(variant)
        if variant == "prompt-sketch" and scenario % 8:
            kernel = PromptPartitioner(stats="sketch", sketch_capacity=scenario % 32 + 1)
        planner = PromptBatchPartitioner()
        for index, (tuples, info) in enumerate(batches):
            if variant == "prompt-postsort":
                groups = sorted_key_groups(tuples, descending=True)
            else:
                groups = _sketch_order(tuples, kernel.sketch_capacity)
            batch = kernel.partition(tuples, num_blocks, info)
            expected = prompt_spec.plan_greedy(planner, groups, num_blocks, info)
            assert _blocks(batch) == _blocks(expected), (scenario, index)
            if variant == "prompt-sketch":
                assert [(g.key, g.tracked_count, g.tuples) for g in groups] == [
                    (g.key, g.tracked_count, g.tuples)
                    for g in kernel.last_batch.key_groups
                ], (scenario, index)
