"""Task execution: cost model, map filters, shuffle, key locality."""

from __future__ import annotations

import ast
import inspect
import math

import pytest

from repro.core.batch import BatchInfo, DataBlock, PartitionedBatch
from repro.core.reduce_allocator import hash_buckets
from repro.core.tuples import StreamTuple
from repro.engine.tasks import TaskCostModel, execute_batch_tasks, execute_map_task
from repro.engine.windows import WindowedAggregator
from repro.partitioners import HashPartitioner, PromptPartitioner, ShufflePartitioner
from repro.queries import base, debs_query1, wordcount_query
from repro.queries.base import Query, SumAggregator
from repro.workloads.synd import synd_source

from ..conftest import make_tuples

INFO = BatchInfo(0, 0.0, 1.0)


def _sum_query(**kw):
    return Query(name="sum", aggregator=SumAggregator(), **kw)


def _value_tuples(pairs):
    return [StreamTuple(ts=i * 0.01, key=k, value=v) for i, (k, v) in enumerate(pairs)]


def _partition(tuples, p=2, partitioner=None):
    part = partitioner or ShufflePartitioner()
    return part.partition(tuples, p, INFO), part


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------
def test_cost_model_monotone_in_size():
    cm = TaskCostModel()
    assert cm.map_time(100, 10) < cm.map_time(200, 10)
    assert cm.map_time(100, 10) < cm.map_time(100, 20)
    assert cm.reduce_time(100, 10) < cm.reduce_time(200, 10)
    assert cm.reduce_time(100, 10) < cm.reduce_time(100, 20)


def test_cost_model_fixed_floor():
    cm = TaskCostModel()
    assert cm.map_time(0, 0) == pytest.approx(cm.map_fixed)
    assert cm.reduce_time(0, 0) == pytest.approx(cm.reduce_fixed)


def test_cost_model_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        TaskCostModel(map_per_tuple=-1e-6)


# ----------------------------------------------------------------------
# map task
# ----------------------------------------------------------------------
def test_map_task_aggregates_per_key():
    block = DataBlock(0)
    block.add_fragment("a", _value_tuples([("a", 1), ("a", 2)]))
    block.add_fragment("b", _value_tuples([("b", 5)]))
    clusters, partials, duration = execute_map_task(
        block, _sum_query(), TaskCostModel()
    )
    assert partials == {"a": 3, "b": 5}
    assert {c.key: c.size for c in clusters} == {"a": 1, "b": 1}  # combined
    assert duration > 0


def test_map_task_without_combine_ships_value_lists():
    block = DataBlock(0)
    block.add_fragment("a", _value_tuples([("a", 1), ("a", 2), ("a", 3)]))
    query = _sum_query(map_side_combine=False)
    clusters, partials, _ = execute_map_task(block, query, TaskCostModel())
    assert {c.key: c.size for c in clusters} == {"a": 3}
    assert partials == {"a": 6}


def test_map_task_filter_drops_tuples_but_charges_scan():
    block = DataBlock(0)
    block.add_fragment("a", _value_tuples([("a", 1), ("a", -1)]))
    query = _sum_query(map_fn=lambda k, v: v if v > 0 else None)
    cm = TaskCostModel()
    clusters, partials, duration = execute_map_task(block, query, cm)
    assert partials == {"a": 1}
    assert duration == pytest.approx(cm.map_time(2, 1))  # both tuples scanned


def test_map_task_fully_filtered_key_emits_nothing():
    block = DataBlock(0)
    block.add_fragment("a", _value_tuples([("a", -1)]))
    query = _sum_query(map_fn=lambda k, v: None)
    clusters, partials, _ = execute_map_task(block, query, TaskCostModel())
    assert len(clusters) == 0
    assert partials == {}


# ----------------------------------------------------------------------
# full batch execution
# ----------------------------------------------------------------------
def test_batch_output_matches_reference():
    tuples = _value_tuples([("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5)])
    query = _sum_query()
    batch, part = _partition(tuples, p=3)
    execution = execute_batch_tasks(batch, query, part, 2, TaskCostModel())
    assert execution.batch_output() == query.reference_output(tuples)


def test_split_key_partials_merge_at_one_reducer():
    tuples = [StreamTuple(ts=i * 0.01, key="hot", value=1) for i in range(10)]
    batch, part = _partition(tuples, p=4)  # shuffle scatters "hot"
    assert "hot" in batch.split_keys
    execution = execute_batch_tasks(batch, _sum_query(), part, 4, TaskCostModel())
    owners = [r for r in execution.reduce_results if "hot" in r.results]
    assert len(owners) == 1
    assert owners[0].results["hot"] == 10
    assert owners[0].fragment_count == 4  # one partial per map task


def test_prompt_allocator_used_in_processing_phase():
    tuples = make_tuples({f"k{i}": 5 for i in range(20)}, shuffle_seed=3)
    part = PromptPartitioner()
    batch = part.partition(tuples, 4, INFO)
    execution = execute_batch_tasks(batch, _sum_query(map_fn=lambda k, v: 1), part, 4, TaskCostModel())
    # every reduce task owns some keys (WorstFit retirement spreads them)
    assert all(r.key_count > 0 for r in execution.reduce_results)
    assert execution.batch_output().keys() == {f"k{i}" for i in range(20)}


def test_fragment_counts_penalize_scatter():
    tuples = make_tuples({f"k{i}": 8 for i in range(16)}, shuffle_seed=4)
    cm = TaskCostModel()
    query = _sum_query(map_fn=lambda k, v: 1)
    sh_batch, sh = _partition(tuples, p=8, partitioner=ShufflePartitioner())
    ha_batch, ha = _partition(tuples, p=8, partitioner=HashPartitioner())
    sh_exec = execute_batch_tasks(sh_batch, query, sh, 4, cm)
    ha_exec = execute_batch_tasks(ha_batch, query, ha, 4, cm)
    sh_frags = sum(r.fragment_count for r in sh_exec.reduce_results)
    ha_frags = sum(r.fragment_count for r in ha_exec.reduce_results)
    assert sh_frags > ha_frags  # shuffle scatters keys over blocks


def test_key_locality_violation_detected():
    """A broken allocator that routes one key to two buckets is caught."""

    class BrokenPartitioner(ShufflePartitioner):
        _bump = 0

        def reduce_allocation(self):
            def allocate(clusters, split_keys, num_buckets):
                out = hash_buckets(clusters, split_keys, num_buckets)
                # perturb: send this task's first cluster to a rotating bucket
                if out:
                    out[0] = (out[0] + self._bump) % num_buckets
                    self._bump += 1
                return out

            return allocate

    part = BrokenPartitioner()
    tuples = [StreamTuple(ts=i * 0.01, key="hot", value=1) for i in range(8)]
    batch = part.partition(tuples, 4, INFO)
    with pytest.raises(AssertionError, match="key locality violated"):
        execute_batch_tasks(batch, _sum_query(), part, 4, TaskCostModel())


def test_rejects_zero_reducers():
    batch, part = _partition(_value_tuples([("a", 1)]))
    with pytest.raises(ValueError):
        execute_batch_tasks(batch, _sum_query(), part, 0, TaskCostModel())


def test_empty_batch_executes():
    batch, part = _partition([], p=2)
    execution = execute_batch_tasks(batch, _sum_query(), part, 2, TaskCostModel())
    assert execution.batch_output() == {}
    assert len(execution.map_durations) == 2  # fixed cost per (empty) task


# ----------------------------------------------------------------------
# float order: strict left-to-right addition through every layer
# ----------------------------------------------------------------------
#: 1.0 vanishes next to 1e16: left to right the sum is 3.0, exactly 4.0
FLOATS = [1e16, 1.0, -1e16, 3.0]


def _left_to_right(values):
    acc = 0
    for v in values:
        acc = acc + v
    return acc


def _fare_batch():
    """DEBS Q1 shape: ``(fare, distance)`` trips, one key per taxi.  Taxi
    ``cab`` has all four fares in block 0; taxi ``split`` has one fare in
    each of four blocks, so Reduce merges four partials."""
    blocks = [DataBlock(i) for i in range(4)]
    blocks[0].add_fragment(
        "cab", [StreamTuple(ts=0.1 * i, key="cab", value=(v, 1.0)) for i, v in enumerate(FLOATS)]
    )
    for i, v in enumerate(FLOATS):
        blocks[i].add_fragment("split", [StreamTuple(ts=0.5, key="split", value=(v, 1.0))])
    return PartitionedBatch(INFO, blocks, split_keys={"split": (0, 1, 2, 3)})


def test_float_sums_add_strictly_left_to_right():
    """Map, Reduce and the window merge each add a float column strictly
    left to right — as the per-value ``add`` loop does — never through a
    compensated sum (3.12's builtin ``sum``, ``math.fsum``)."""
    strict = _left_to_right(FLOATS)
    assert strict == 3.0 and math.fsum(FLOATS) == 4.0  # the case bites
    query = debs_query1()
    execution = execute_batch_tasks(_fare_batch(), query, PromptPartitioner(), 2, TaskCostModel())
    block0 = execution.map_results[0]
    assert block0.partials["cab"] == strict  # Map: one fragment, four values
    output = execution.batch_output()
    assert output == {"cab": strict, "split": strict}  # Reduce: four partials
    shipped = execute_map_task(_fare_batch().blocks[0].map_input(), query, TaskCostModel())
    assert shipped[1]["cab"] == strict  # Map on a shipped value column
    assert SumAggregator().fold("w", FLOATS, None) == (strict, 4)  # no map function
    windows = WindowedAggregator(query.aggregator, batches_per_window=4)
    for v in FLOATS:
        answer = windows.add_batch({"w": v})
    assert answer == {"w": strict}  # window merge
    answer = windows.add_batch({"w": 0.5})
    assert answer == {"w": (strict - 1e16) + 0.5}  # retraction, then merge


def test_no_fold_uses_a_compensated_sum():
    """The aggregators' bulk hooks and block forms never call builtin
    ``sum`` or ``math.fsum`` (whose float results differ across Python
    versions and from the per-value loop)."""
    tree = ast.parse(inspect.getsource(base))
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert not called & {"sum", "fsum"}


# ----------------------------------------------------------------------
# batch key count under split keys
# ----------------------------------------------------------------------
def test_reduce_key_counts_sum_to_distinct_map_keys():
    """Key locality makes the Reduce tasks' key counts partition the
    batch's emitted keys — also when hot keys are split over blocks."""
    source = synd_source(1.4, num_keys=5_000, rate=4_000.0, seed=3)
    partitioner = PromptPartitioner()
    split_total = 0
    for k in range(3):
        info = BatchInfo(k, float(k), k + 1.0)
        batch = partitioner.partition(source.tuples_between(k, k + 1.0), 6, info)
        split_total += len(batch.split_keys)
        execution = execute_batch_tasks(
            batch, wordcount_query(), partitioner, 4, TaskCostModel()
        )
        distinct = {key for m in execution.map_results for key in m.clusters.keys}
        assert len(distinct) == sum(r.key_count for r in execution.reduce_results)
    assert split_total > 0
