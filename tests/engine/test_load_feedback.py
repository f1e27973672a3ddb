"""Engine wiring of the worker-load feedback channel.

The contract under test: a partitioner with ``uses_feedback = True``
receives, immediately before batch ``k`` is partitioned, the observed
load of every batch ``<= k - FEEDBACK_LAG`` in batch order — and a
partitioner that does not opt in is never called at all.
"""

from __future__ import annotations

from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.partitioners import FEEDBACK_LAG
from repro.partitioners.hashing import HashPartitioner
from repro.queries import wordcount_query
from repro.workloads import ConstantRate, synd_source

NUM_BATCHES = 6


class RecordingPartitioner(HashPartitioner):
    """Hash layout, but logs the interleaving of partition/feedback calls."""

    name = "spy-hash"
    uses_feedback = True

    def __init__(self) -> None:
        super().__init__()
        self.events: list[tuple[str, int]] = []
        self.feedback = []

    def partition(self, tuples, num_blocks, info):
        self.events.append(("partition", info.index))
        return super().partition(tuples, num_blocks, info)

    def observe_load(self, feedback) -> None:
        self.events.append(("feedback", feedback.batch_index))
        self.feedback.append(feedback)


class DeafPartitioner(RecordingPartitioner):
    """Records like the spy but has not opted in — must stay silent."""

    name = "deaf-hash"
    uses_feedback = False


def _run(partitioner):
    cfg = EngineConfig(
        batch_interval=1.0,
        num_blocks=4,
        num_reducers=4,
        run_seed=13,
    )
    engine = MicroBatchEngine(partitioner, wordcount_query(window_length=3.0), cfg)
    source = synd_source(1.2, num_keys=300, arrival=ConstantRate(1_000.0), seed=11)
    return engine.run(source, NUM_BATCHES)


def _expected_events(num_batches: int) -> list[tuple[str, int]]:
    events: list[tuple[str, int]] = []
    for k in range(num_batches):
        if k >= FEEDBACK_LAG:
            events.append(("feedback", k - FEEDBACK_LAG))
        events.append(("partition", k))
    return events


def test_sequential_driver_delivers_with_fixed_lag():
    spy = RecordingPartitioner()
    _run(spy)
    assert spy.events == _expected_events(NUM_BATCHES)


def test_feedback_carries_the_executed_batch_load():
    spy = RecordingPartitioner()
    result = _run(spy)
    by_index = {r.index: r for r in result.stats.records}
    assert len(spy.feedback) == NUM_BATCHES - FEEDBACK_LAG
    for fb in spy.feedback:
        record = by_index[fb.batch_index]
        assert sum(fb.block_sizes) == record.tuple_count
        assert len(fb.block_loads) == len(fb.block_sizes) == 4
        assert all(load > 0.0 for load in fb.block_loads)
        assert len(fb.bucket_loads) == len(fb.bucket_weights) == 4


def test_non_consumers_never_receive_feedback():
    deaf = DeafPartitioner()
    _run(deaf)
    assert all(kind == "partition" for kind, _ in deaf.events)
