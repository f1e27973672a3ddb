"""Property suite: a Map task's block form is its per-value loop, folded.

WordCount (``count_one`` into a ``CountAggregator``) declares a block
form (:meth:`~repro.queries.base.Query.block_form`): a fragment's
partial is its length, computed in one call.  The same query with a
look-alike map function has no block form and runs its map function
and ``add`` per tuple, through ``Aggregator.fold``.  Over the Zipf/churn instance families of
``test_kernels_property.py`` (skewed keys, weighted tuples, a drifting
key universe) and several partitioners' blocks, both must give the same
Map task result — clusters, partials and their order, the Reduce
routing, the cost — on the ``DataBlock`` and on its shipped
``MapInput``, with and without map-side combining.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.core.batch import BatchInfo
from repro.core.tuples import StreamTuple
from repro.engine.tasks import TaskCostModel, run_map_task
from repro.partitioners.registry import make_partitioner
from repro.queries.base import CountAggregator, Query, SumAggregator, count_one

SCENARIOS = 12
BATCHES_PER_SCENARIO = 3
TECHNIQUES = ("hash", "shuffle", "pk2", "prompt")


def _one(key, value):
    """``count_one`` under another name: no block form."""
    return 1


def _pair(combine: bool) -> tuple[Query, Query]:
    folded = Query(
        name="wc", aggregator=CountAggregator(), map_fn=count_one,
        map_side_combine=combine,
    )
    return folded, dataclasses.replace(folded, map_fn=_one)


def _gen_batch(rng, index, n, num_keys, key_base, weighted):
    t_start = float(index)
    ts = sorted(rng.uniform(t_start, t_start + 1.0) for _ in range(n))
    tuples = [
        StreamTuple(
            ts=ts[i],
            key=f"k{key_base + int(rng.paretovariate(1.1)) % num_keys}",
            value=rng.random(),
            weight=rng.randint(1, 5) if weighted else 1,
        )
        for i in range(n)
    ]
    return tuples, BatchInfo(index=index, t_start=t_start, t_end=t_start + 1.0)


def _comparable(result):
    fields = dataclasses.asdict(result)
    del fields["wall_seconds"]
    return fields


def test_only_wordcount_declares_a_block_form():
    folded, scalar = _pair(combine=True)
    assert folded.block_form() is len
    assert scalar.block_form() is None
    # a float sum, or a count whose Map may filter, keeps the loop
    assert Query(name="s", aggregator=SumAggregator(), map_fn=count_one).block_form() is None
    assert Query(name="c", aggregator=CountAggregator()).block_form() is None


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_block_form_matches_per_value_loop(technique):
    cost_model = TaskCostModel()
    split_seen = 0
    for scenario in range(SCENARIOS):
        rng = random.Random(9100 + scenario)
        partitioner = make_partitioner(technique)
        allocate = partitioner.reduce_allocation()
        num_keys = 3 + (scenario * 37) % 150
        num_blocks = 2 + scenario % 6
        key_base = 0
        for index in range(BATCHES_PER_SCENARIO):
            n = 30 + (scenario * 151 + index * 293) % 500
            tuples, info = _gen_batch(
                rng, index, n, num_keys, key_base, weighted=scenario % 3 == 2
            )
            key_base += rng.choice((0, num_keys // 3, num_keys))  # churn
            batch = partitioner.partition(tuples, num_blocks, info)
            split = set(batch.split_keys)
            split_seen += len(split)
            for block in batch.blocks:
                block_split = {k for k in split if k in block}
                for combine in (True, False):
                    folded, scalar = _pair(combine)
                    reference = run_map_task(
                        block, scalar, allocate, 4, block_split, cost_model
                    )
                    assert list(reference.clusters.keys) == list(block.keys)
                    for form in (block, block.map_input()):
                        result = run_map_task(
                            form, folded, allocate, 4, block_split, cost_model
                        )
                        where = f"{technique} {scenario}/{index} combine={combine}"
                        assert _comparable(result) == _comparable(reference), where
                        result.wall_seconds = reference.wall_seconds
                        assert pickle.dumps(result) == pickle.dumps(reference), where
    if technique != "hash":
        assert split_seen > 0  # the hashed-split routing was exercised
