"""Property suite: a block's wire form is the block, as far as Map can tell.

The parallel backend ships a Map task a :class:`~repro.core.batch.MapInput`
(index, summed weight, one value column per key) instead of the
:class:`~repro.core.batch.DataBlock` of tuple objects.  Over the instance
families of ``test_kernels_property.py`` (Zipf-skewed keys, weighted
tuples, key churn across batches) and every registry partitioner's
blocks, ``run_map_task`` must not be able to tell the two apart: same
result field by field, same bytes once pickled, before and after the
wire form's own pickle round trip.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.core.batch import BatchInfo, MapInput
from repro.core.tuples import StreamTuple
from repro.engine.tasks import TaskCostModel, run_map_task
from repro.partitioners.registry import PARTITIONER_NAMES, make_partitioner
from repro.queries.base import Query, SumAggregator, SumCountAggregator

SCENARIOS_PER_PARTITIONER = 6
BATCHES_PER_SCENARIO = 3


def _positive_or_none(key, value):
    return value if value > 0 else None


QUERIES = {
    "algebraic": Query(name="mean", aggregator=SumCountAggregator()),
    "filtering": Query(
        name="positive-sum", aggregator=SumAggregator(), map_fn=_positive_or_none
    ),
    "holistic": Query(
        name="sum-holistic", aggregator=SumAggregator(), map_side_combine=False
    ),
}


def _gen_batch(rng, index, n, num_keys, key_base, weighted):
    """One interval of Zipf-ish valued tuples (churn via ``key_base``)."""
    t_start = float(index)
    ts = sorted(rng.uniform(t_start, t_start + 1.0) for _ in range(n))
    tuples = [
        StreamTuple(
            ts=ts[i],
            key=f"k{key_base + int(rng.paretovariate(1.1)) % num_keys}",
            # mixed-sign ints and floats: the filter drops some, and
            # float sums make any reordering of a column visible
            value=rng.choice((rng.randint(-5, 9), rng.uniform(-1.0, 3.0))),
            weight=rng.randint(1, 5) if weighted else 1,
        )
        for i in range(n)
    ]
    return tuples, BatchInfo(index=index, t_start=t_start, t_end=t_start + 1.0)


def _comparable(result):
    fields = dataclasses.asdict(result)
    del fields["wall_seconds"]
    return fields


@pytest.mark.parametrize("technique", PARTITIONER_NAMES)
def test_map_task_cannot_tell_wire_form_from_block(technique):
    cost_model = TaskCostModel()
    for scenario in range(SCENARIOS_PER_PARTITIONER):
        rng = random.Random(7300 + scenario)
        partitioner = make_partitioner(technique)
        allocate = partitioner.reduce_allocation()
        num_keys = 3 + (scenario * 29) % 120
        num_blocks = 2 + scenario % 5
        key_base = 0
        for index in range(BATCHES_PER_SCENARIO):
            n = 40 + (scenario * 137 + index * 311) % 400
            tuples, info = _gen_batch(
                rng, index, n, num_keys, key_base, weighted=scenario % 3 == 2
            )
            key_base += rng.choice((0, num_keys // 3, num_keys))  # churn
            batch = partitioner.partition(tuples, num_blocks, info)
            split = set(batch.split_keys)
            for block in batch.blocks:
                wire = block.map_input()
                blob = pickle.dumps(wire)
                assert b"StreamTuple" not in blob
                shipped = pickle.loads(blob)
                assert isinstance(shipped, MapInput)
                for form in (wire, shipped):
                    assert (form.index, form.size, form.cardinality) == (
                        block.index, block.size, block.cardinality,
                    )
                    assert list(form.keys) == list(block.keys)  # key order too
                    for key in block.keys:
                        assert key in form
                        assert list(form.values(key)) == [
                            t.value for t in block.fragment(key)
                        ]
                block_split = {k for k in split if k in block}
                for name, query in QUERIES.items():
                    args = (query, allocate, 3, block_split, cost_model, 99)
                    reference = run_map_task(block, *args)
                    for form in (wire, shipped):
                        result = run_map_task(form, *args)
                        where = f"{technique} scenario={scenario} batch={index} {name}"
                        assert _comparable(result) == _comparable(reference), where
                        result.wall_seconds = reference.wall_seconds
                        assert pickle.dumps(result) == pickle.dumps(reference), where


def test_values_of_an_absent_key_is_empty():
    batch = make_partitioner("hash").partition(
        [StreamTuple(ts=0.1, key="a", value=1)], 2, BatchInfo(0, 0.0, 1.0)
    )
    for block in batch.blocks:
        wire = block.map_input()
        assert "nope" not in wire and "nope" not in block
        assert list(wire.values("nope")) == [] == block.fragment("nope")
