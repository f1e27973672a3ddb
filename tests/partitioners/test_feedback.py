"""Unit tests for the worker-load feedback channel and its consumers."""

from __future__ import annotations

from repro.core.batch import BatchInfo
from repro.core.metrics import evaluate_partition
from repro.partitioners import (
    FEEDBACK_LAG,
    NULL_FEEDBACK,
    DChoicesPartitioner,
    FangRepartitioner,
    FeedbackBuffer,
    NullFeedback,
    Partitioner,
    WChoicesPartitioner,
    WorkerLoadFeedback,
    make_partitioner,
)

from ..conftest import make_tuples, zipfish_freqs


def _fb(index: int, loads: tuple[float, ...] = (1.0, 1.0)) -> WorkerLoadFeedback:
    return WorkerLoadFeedback(
        batch_index=index,
        block_sizes=tuple(100 for _ in loads),
        block_cardinalities=tuple(10 for _ in loads),
        block_loads=loads,
        bucket_weights=(),
        bucket_loads=(),
    )


class SpyPartitioner:
    def __init__(self):
        self.seen: list[int] = []

    def observe_load(self, feedback: WorkerLoadFeedback) -> None:
        self.seen.append(feedback.batch_index)


# ----------------------------------------------------------------------
# FeedbackBuffer / NullFeedback
# ----------------------------------------------------------------------
class TestFeedbackBuffer:
    def test_holds_feedback_until_lag_expires(self):
        buffer = FeedbackBuffer()
        spy = SpyPartitioner()
        for k in range(4):
            delivered = buffer.deliver(spy, k)
            assert delivered == (1 if k >= FEEDBACK_LAG else 0)
            buffer.publish(_fb(k))
        assert spy.seen == [0, 1]  # batches <= 3 - 2

    def test_delivery_is_in_batch_order_regardless_of_publish_order(self):
        buffer = FeedbackBuffer()
        spy = SpyPartitioner()
        # delivery order must not depend on publish order
        for index in (2, 0, 1, 3):
            buffer.publish(_fb(index))
        assert buffer.deliver(spy, 5) == 4
        assert spy.seen == [0, 1, 2, 3]

    def test_each_feedback_is_delivered_exactly_once(self):
        buffer = FeedbackBuffer()
        spy = SpyPartitioner()
        buffer.publish(_fb(0))
        buffer.deliver(spy, 2)
        buffer.deliver(spy, 3)
        buffer.deliver(spy, 99)
        assert spy.seen == [0]

    def test_null_feedback_is_disabled_and_inert(self):
        spy = SpyPartitioner()
        assert NULL_FEEDBACK.enabled is False
        assert isinstance(NULL_FEEDBACK, NullFeedback)
        NULL_FEEDBACK.publish(_fb(0))
        assert NULL_FEEDBACK.deliver(spy, 10) == 0
        assert spy.seen == []

    def test_buffer_is_enabled(self):
        assert FeedbackBuffer().enabled is True


class TestWorkerLoadFeedback:
    def test_relative_block_loads_normalises_by_mean(self):
        fb = _fb(0, loads=(3.0, 1.0))
        assert fb.relative_block_loads() == (1.5, 0.5)

    def test_relative_block_loads_degenerate_cases(self):
        assert _fb(0, loads=()).relative_block_loads() == ()
        assert _fb(0, loads=(0.0, 0.0)).relative_block_loads() == (1.0, 1.0)


def test_base_partitioner_ignores_feedback_by_default():
    assert Partitioner.uses_feedback is False
    part = make_partitioner("hash")
    assert part.uses_feedback is False
    part.observe_load(_fb(0))  # default hook: a no-op


def test_only_the_new_techniques_opt_in():
    consumers = {
        name
        for name in ("hash", "pk2", "pk5", "prompt", "d-choices", "w-choices", "fang")
        if make_partitioner(name).uses_feedback
    }
    assert consumers == {"d-choices", "w-choices", "fang"}


# ----------------------------------------------------------------------
# D-Choices / W-Choices
# ----------------------------------------------------------------------
class TestDChoices:
    def _warm(self, part: DChoicesPartitioner) -> None:
        """Seed the sketch: h carries half the mass, the rest is tail."""
        for key, count in (("h", 50), ("x", 20), ("y", 20), ("z", 10)):
            for _ in range(count):
                part._sketch.add(key)

    def test_degree_scales_with_frequency_share(self):
        part = DChoicesPartitioner(threshold=0.1, sketch_capacity=4)
        assert part._degree("h", 8) == 0  # no evidence yet -> tail
        self._warm(part)
        # share 0.5 / theta 0.1 -> 5 candidates; capped by the cluster
        assert part._degree("h", 8) == 5
        assert part._degree("h", 3) == 3
        # share 0.1 <= theta -> tail, as is an unseen key
        assert part._degree("z", 8) == 0
        assert part._degree("never-seen", 8) == 0

    def test_w_caps_the_degree(self):
        part = DChoicesPartitioner(w=2, threshold=0.1, sketch_capacity=4)
        self._warm(part)
        assert part._degree("h", 8) == 2

    def test_w_choices_uses_every_worker_for_head_keys(self):
        part = WChoicesPartitioner(threshold=0.1, sketch_capacity=4)
        self._warm(part)
        assert part._degree("h", 8) == 8
        assert part._degree("z", 8) == 0
        assert part._degree("h", 1) == 0

    def test_observe_load_biases_against_hot_blocks(self):
        part = DChoicesPartitioner(threshold=0.1, sketch_capacity=4, feedback_weight=1.0)
        part.observe_load(_fb(0, loads=(3.0, 1.0)))
        # mean size 100: block 0 ran 1.5x mean -> +50, block 1 0.5x -> -50
        assert part._load_bias == (50.0, -50.0)
        part.observe_load(_fb(1, loads=()))
        assert part._load_bias == ()

    def test_head_key_avoids_the_observed_hot_block(self):
        part = WChoicesPartitioner(threshold=0.1, sketch_capacity=4, feedback_weight=1.0)
        self._warm(part)
        info = BatchInfo(0, 0.0, 1.0)
        tuples = make_tuples({"h": 40})
        baseline = part.partition(tuples, 2, info)
        spread = {b.index: b.size for b in baseline.blocks}
        assert spread[0] == spread[1] == 20  # no feedback: plain least-loaded
        part.observe_load(_fb(0, loads=(9.0, 1.0)))  # block 0 ran very hot
        biased = part.partition(tuples, 2, info)
        sizes = {b.index: b.size for b in biased.blocks}
        assert sizes[1] > sizes[0]


# ----------------------------------------------------------------------
# Fang
# ----------------------------------------------------------------------
def _run_fang(part: FangRepartitioner, num_batches: int, *, num_blocks: int = 4):
    tuples = make_tuples(zipfish_freqs(24, 600), shuffle_seed=3)
    batches = []
    for k in range(num_batches):
        info = BatchInfo(k, float(k), float(k + 1))
        batches.append(part.partition(tuples, num_blocks, info))
    return batches


class TestFang:
    def test_migrates_toward_balance_and_never_splits(self):
        part = FangRepartitioner()
        batches = _run_fang(part, 4)
        assert part.migrations_total > 0
        first, last = evaluate_partition(batches[0]), evaluate_partition(batches[-1])
        assert last.bsi < first.bsi  # the plan actually helps
        for batch in batches:
            assert evaluate_partition(batch).ksr == 1.0
            assert not batch.split_keys

    def test_max_migrations_caps_moves_per_batch(self):
        part = FangRepartitioner(max_migrations=1)
        _run_fang(part, 3)
        assert 0 < part.migrations_total <= 3

    def test_prohibitive_migration_cost_freezes_the_routing(self):
        part = FangRepartitioner(migration_cost=1_000.0)
        batches = _run_fang(part, 3)
        assert part.migrations_total == 0
        # with no migrations every batch keeps the initial hash layout
        layouts = [
            {b.index: sorted(b.fragment_sizes()) for b in batch.blocks}
            for batch in batches
        ]
        assert layouts[0] == layouts[1] == layouts[2]

    def test_reset_clears_all_learned_state(self):
        part = FangRepartitioner()
        _run_fang(part, 3)
        part.reset()
        assert part.migrations_total == 0
        assert part._routing == {} and part._rates == {}

    def test_observed_load_steers_the_blend(self):
        part = FangRepartitioner(feedback_weight=1.0)
        _run_fang(part, 1)
        part.observe_load(_fb(0, loads=(4.0, 1.0, 1.0, 2.0)))
        assert part._observed_relative == (2.0, 0.5, 0.5, 1.0)

    def test_identical_history_gives_identical_layouts(self):
        a, b = FangRepartitioner(), FangRepartitioner()
        for part in (a, b):
            part.reset()
        batches_a = _run_fang(a, 3)
        batches_b = _run_fang(b, 3)
        for x, y in zip(batches_a, batches_b):
            assert [bl.fragment_sizes() for bl in x.blocks] == [
                bl.fragment_sizes() for bl in y.blocks
            ]
