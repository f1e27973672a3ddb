"""Algorithm 3 breaks ties on the order-token ranks Algorithm 1 computed.

Algorithm 1 ranks every key of the batch by its order token for the
quasi-sort (the post-sort ablation's exact sort too); the blocks
Algorithm 2 installs carry those ranks, and each Map task hands them to
Algorithm 3 instead of sorting its keys' tokens again.  For both
``prompt`` and ``prompt-postsort``, over the kernel property suite's
instances the buckets must be exactly those of ranking each block's
keys with ``token_order``, and a run shaped like the ``synd_flat_wc``
benchmark must sort tokens once per batch (Algorithm 1) and never in
Algorithm 3 on a block the rebalance pass left alone.
"""

from __future__ import annotations

import pytest

import repro
from repro.core import kernels, reduce_allocator
from repro.core.reduce_allocator import ClusterColumns, bpvc_buckets
from repro.engine import EngineConfig
from repro.partitioners import make_partitioner
from repro.queries import wordcount_query
from repro.workloads import synd_source

from .test_kernels_property import NUM_SCENARIOS, _replays


@pytest.mark.parametrize(
    "variant, chunk",
    [pytest.param("prompt", chunk, id=str(chunk)) for chunk in range(4)]
    + [
        pytest.param("prompt-postsort", chunk, id=f"postsort-{chunk}")
        for chunk in range(4)
    ],
)
def test_algorithm1_ranks_route_as_token_order(variant, chunk):
    ranked = 0
    for scenario, num_blocks, batches in _replays(range(chunk, NUM_SCENARIOS, 4)):
        partitioner = make_partitioner(variant)
        for tuples, info in batches:
            batch = partitioner.partition(tuples, num_blocks, info)
            for block in batch.blocks:
                if block.ranks is None:
                    continue
                ranked += 1
                split = {k for k in batch.split_keys if k in block}
                for sizes in (block.weights, [1] * block.cardinality):
                    for r in (1, 3, 8):
                        given = ClusterColumns(block.keys, sizes, block.ranks)
                        own = ClusterColumns(block.keys, sizes)
                        assert bpvc_buckets(given, split, r) == bpvc_buckets(
                            own, split, r
                        ), (scenario, info.index, block.index, r)
    assert ranked > 300


@pytest.mark.parametrize("variant", ["prompt", "prompt-postsort"])
def test_flat_run_sorts_tokens_once_per_batch(monkeypatch, variant):
    calls = {"alg1": 0, "alg3": 0}
    untouched = []  # per batch: blocks that still carry Algorithm 1's ranks

    def counted(module, name):
        inner = getattr(module, "token_order")

        def token_order(keys):
            calls[name] += 1
            return inner(keys)

        monkeypatch.setattr(module, "token_order", token_order)

    counted(kernels, "alg1")
    counted(reduce_allocator, "alg3")
    plan = kernels.plan_greedy

    def plan_greedy(*args):
        batch = plan(*args)
        untouched.append(sum(block.ranks is not None for block in batch.blocks))
        return batch

    monkeypatch.setattr(kernels, "plan_greedy", plan_greedy)
    num_batches, num_blocks = 5, 8
    repro.run(
        synd_source(0.6, num_keys=100_000, rate=3_000.0, seed=7),
        wordcount_query(),
        partitioner=variant,
        num_batches=num_batches,
        engine=EngineConfig(
            batch_interval=1.0, num_blocks=num_blocks, num_reducers=8, run_seed=7
        ),
    )
    assert len(untouched) == num_batches
    assert calls["alg1"] == num_batches
    # Algorithm 3 ranks a block's keys itself only where the rebalance
    # pass changed the block
    assert calls["alg3"] == num_batches * num_blocks - sum(untouched)
    assert sum(untouched) > 0
