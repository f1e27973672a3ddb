"""Algorithm 2 (both strategies): completeness, balance, fragmentation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collections.abc import Sequence as CollectionsSequence

from repro.core.batch import BatchInfo, DataBlock
from repro.core.batch_partitioner import PromptBatchPartitioner, _split_with_weight
from repro.core.config import PartitionerConfig
from repro.core.metrics import evaluate_partition
from repro.core.tuples import KeyGroup, StreamTuple, sorted_key_groups

INFO = BatchInfo(0, 0.0, 1.0)


def _groups(freqs: dict) -> list[KeyGroup]:
    groups = [
        KeyGroup(
            key=k,
            tuples=[StreamTuple(ts=0.0, key=k) for _ in range(n)],
            tracked_count=n,
        )
        for k, n in freqs.items()
    ]
    groups.sort(key=lambda g: -g.size)
    return groups


STRATEGIES = ("greedy", "zigzag")


# ----------------------------------------------------------------------
# _split_with_weight
# ----------------------------------------------------------------------
def test_split_group_exact_cut():
    tuples = [StreamTuple(ts=0.0, key="a") for _ in range(5)]
    for total in (None, 5):  # the per-tuple walk and the unit-weight slice
        head, rest, head_weight = _split_with_weight(tuples, 2, total)
        assert len(head) == 2
        assert len(rest) == 3
        assert head_weight == 2


def test_split_group_cut_beyond_size():
    tuples = [StreamTuple(ts=0.0, key="a") for _ in range(3)]
    head, rest, head_weight = _split_with_weight(tuples, 10)
    assert len(head) == 3
    assert rest == []
    assert head_weight == 3


def test_split_group_zero_cut():
    tuples = [StreamTuple(ts=0.0, key="a")]
    head, rest, head_weight = _split_with_weight(tuples, 0)
    assert head == []
    assert len(rest) == 1
    assert head_weight == 0


def test_split_group_variable_weights():
    tuples = [StreamTuple(ts=0.0, key="a", weight=w) for w in (3, 3, 3)]
    head, rest, head_weight = _split_with_weight(tuples, 4, 9)
    # shortest prefix reaching the cut: two tuples of weight 3
    assert len(head) == 2
    assert len(rest) == 1
    assert head_weight == 6


# ----------------------------------------------------------------------
# basic partitioning behaviour (both strategies)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_tuple_assigned_exactly_once(strategy):
    part = PromptBatchPartitioner(strategy=strategy)
    groups = _groups({f"k{i}": (i % 7) + 1 for i in range(40)})
    total = sum(g.size for g in groups)
    batch = part.partition(groups, 4, INFO)
    batch.validate(expected_tuples=total)
    assert batch.total_tuples == total


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rejects_zero_blocks(strategy):
    part = PromptBatchPartitioner(strategy=strategy)
    with pytest.raises(ValueError):
        part.partition(_groups({"a": 1}), 0, INFO)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_empty_batch(strategy):
    part = PromptBatchPartitioner(strategy=strategy)
    batch = part.partition([], 4, INFO)
    assert batch.num_blocks == 4
    assert batch.total_tuples == 0
    assert batch.split_keys == {}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_single_block_takes_everything(strategy):
    part = PromptBatchPartitioner(strategy=strategy)
    batch = part.partition(_groups({"a": 5, "b": 3}), 1, INFO)
    assert batch.blocks[0].size == 8
    assert batch.split_keys == {}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_uniform_keys_balanced_without_splits(strategy):
    part = PromptBatchPartitioner(strategy=strategy)
    groups = _groups({f"k{i}": 4 for i in range(40)})
    batch = part.partition(groups, 4, INFO)
    quality = evaluate_partition(batch)
    assert quality.bsi <= 4.0
    assert quality.bci <= 1.0
    assert quality.ksr == 1.0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_block_sizes_respect_capacity(strategy):
    part = PromptBatchPartitioner(strategy=strategy)
    groups = _groups({f"k{i}": (53 * (i + 1)) % 17 + 1 for i in range(60)})
    total = sum(g.size for g in groups)
    p = 5
    batch = part.partition(groups, p, INFO)
    capacity = math.ceil(total / p)
    for block in batch.blocks:
        assert block.size <= capacity + 1  # ceil slack


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_mega_key_spreads_over_blocks(strategy):
    part = PromptBatchPartitioner(strategy=strategy)
    groups = _groups({"hot": 100, "a": 2, "b": 2})
    batch = part.partition(groups, 4, INFO)
    batch.validate(expected_tuples=104)
    assert "hot" in batch.split_keys
    assert len(batch.split_keys["hot"]) >= 3  # must span several blocks
    quality = evaluate_partition(batch)
    assert quality.bsi <= 5.0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_split_keys_reference_table_is_consistent(strategy):
    part = PromptBatchPartitioner(strategy=strategy)
    groups = _groups({f"k{i}": 30 - i for i in range(30)})
    batch = part.partition(groups, 6, INFO)
    recomputed = {}
    for block in batch.blocks:
        for key in block.keys:
            recomputed.setdefault(key, []).append(block.index)
    expected = {
        k: tuple(sorted(v)) for k, v in recomputed.items() if len(v) > 1
    }
    assert batch.split_keys == expected


def test_greedy_balances_cardinality_under_skew():
    part = PromptBatchPartitioner(strategy="greedy")
    freqs = {f"k{i}": max(1, 1000 // (i + 1)) for i in range(200)}
    batch = part.partition(_groups(freqs), 8, INFO)
    quality = evaluate_partition(batch)
    assert quality.bci <= 6.0
    assert quality.bsi <= 10.0
    assert quality.ksr <= 1.2


def test_zigzag_strategy_matches_paper_structure():
    """Zigzag: non-split keys dealt exactly evenly (cardinality +-1 before residuals)."""
    part = PromptBatchPartitioner(strategy="zigzag")
    # all keys below the split cutoff: freq 1-2, cutoff >= avg
    groups = _groups({f"k{i}": 1 for i in range(64)})
    batch = part.partition(groups, 8, INFO)
    cards = [b.cardinality for b in batch.blocks]
    assert max(cards) - min(cards) <= 1
    assert batch.split_keys == {}


def test_invalid_strategy_rejected():
    with pytest.raises(ValueError):
        PromptBatchPartitioner(strategy="bogus")


def test_split_cutoff_scale_controls_fragmentation():
    freqs = {f"k{i}": max(1, 120 // (i + 1)) for i in range(30)}
    lo = PromptBatchPartitioner(
        PartitionerConfig(split_cutoff_scale=0.5), strategy="zigzag"
    ).partition(_groups(freqs), 4, INFO)
    hi = PromptBatchPartitioner(
        PartitionerConfig(split_cutoff_scale=4.0), strategy="zigzag"
    ).partition(_groups(freqs), 4, INFO)
    # A lower cutoff splits more keys.
    assert len(lo.split_keys) >= len(hi.split_keys)


def test_quasi_sorted_input_tolerated():
    """Stale tracked counts (mis-sorted input) must not lose tuples."""
    part = PromptBatchPartitioner()
    groups = _groups({f"k{i}": (i * 37) % 23 + 1 for i in range(50)})
    groups[0], groups[-1] = groups[-1], groups[0]  # break the sort
    total = sum(g.size for g in groups)
    batch = part.partition(groups, 4, INFO)
    batch.validate(expected_tuples=total)


def test_figure5_example_beats_ffd_on_fragmented_keys():
    """The Figure 5/6 running example: Prompt fragments at most 2 keys."""
    freqs = dict(
        [("K1", 150), ("K2", 80), ("K3", 50), ("K4", 40),
         ("K5", 25), ("K6", 20), ("K7", 12), ("K8", 8)]
    )
    part = PromptBatchPartitioner()
    batch = part.partition(_groups(freqs), 4, INFO)
    batch.validate(expected_tuples=385)
    assert len(batch.split_keys) <= 2
    quality = evaluate_partition(batch)
    assert quality.bsi <= 4.0
    cards = [b.cardinality for b in batch.blocks]
    assert max(cards) - min(cards) <= 2


# ----------------------------------------------------------------------
# property-based
# ----------------------------------------------------------------------
@given(
    freqs=st.dictionaries(
        st.integers(0, 100), st.integers(1, 50), min_size=1, max_size=60
    ),
    num_blocks=st.integers(1, 8),
    strategy=st.sampled_from(STRATEGIES),
)
@settings(max_examples=80, deadline=None)
def test_property_no_tuple_lost_or_duplicated(freqs, num_blocks, strategy):
    part = PromptBatchPartitioner(strategy=strategy)
    groups = _groups(freqs)
    total = sum(g.size for g in groups)
    batch = part.partition(groups, num_blocks, INFO)
    batch.validate(expected_tuples=total)
    # per-key conservation
    for key, n in freqs.items():
        got = sum(len(b.fragment(key)) for b in batch.blocks)
        assert got == n


@given(
    freqs=st.dictionaries(
        st.integers(0, 50), st.integers(1, 100), min_size=2, max_size=40
    ),
    num_blocks=st.integers(2, 6),
)
@settings(max_examples=60, deadline=None)
def test_property_greedy_capacity_bound(freqs, num_blocks):
    part = PromptBatchPartitioner(strategy="greedy")
    groups = _groups(freqs)
    total = sum(g.size for g in groups)
    batch = part.partition(groups, num_blocks, INFO)
    capacity = math.ceil(total / num_blocks)
    # The rebalance phase tolerates overshoot up to the global ceil
    # slack (capped at ~1.5% of a block) — mirror that bound here.
    slack = num_blocks * capacity - total
    tolerance = min(slack, max(0, capacity // 64))
    for block in batch.blocks:
        assert block.size <= capacity + tolerance


@given(
    freqs=st.dictionaries(
        st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=3),
        st.integers(1, 30),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_split_keys_are_exactly_multi_block_keys(freqs):
    part = PromptBatchPartitioner()
    batch = part.partition(_groups(freqs), 4, INFO)
    for key in freqs:
        blocks_with_key = [b.index for b in batch.blocks if key in b]
        if len(blocks_with_key) > 1:
            assert key in batch.split_keys
        else:
            assert key not in batch.split_keys


# ----------------------------------------------------------------------
# hot-path regressions
# ----------------------------------------------------------------------
class _CountingChain(CollectionsSequence):
    """A tuple chain that counts how many elements slicing copies out."""

    def __init__(self, items):
        self._items = list(items)
        self.sliced_elements = 0

    def __len__(self):
        return len(self._items)

    def __getitem__(self, ix):
        if isinstance(ix, slice):
            out = self._items[ix]
            self.sliced_elements += len(out)
            return out
        return self._items[ix]


def test_mega_key_dicing_is_linear():
    """Dicing a hot key into c chunks must copy O(n) tuples, not O(c*n).

    The pre-fix loop re-sliced the *remaining* chain for every chunk, so
    each of the mega-key's tuples was copied once per chunk boundary it
    survived past.  With the index cursor each tuple is sliced out
    exactly once.
    """
    n = 4096
    mega = KeyGroup(
        key="mega",
        tuples=[StreamTuple(ts=0.0, key="mega") for _ in range(n)],
        tracked_count=n,
    )
    chain = _CountingChain(mega.tuples)
    mega.tuples = chain  # type: ignore[assignment]
    small = _groups({f"k{i}": 8 for i in range(7)})
    groups = [mega, *small]

    part = PromptBatchPartitioner()
    batch = part.partition(groups, 8, INFO)

    # Correctness: nothing lost, the mega key really was diced.
    assert sum(b.size for b in batch.blocks) == n + 7 * 8
    assert len(batch.split_keys.get("mega", ())) > 1
    # Linear work: each tuple is sliced out of the chain exactly once.
    assert chain.sliced_elements <= 2 * n


def test_greedy_assign_honors_passed_cutoff():
    """``_greedy_assign`` must use the cutoff ``partition`` hands it.

    The pre-fix code silently recomputed ``s_cut`` from the key groups
    (yielding 10 here, so nothing would split); the caller's value must
    be authoritative so the two code paths can never drift apart.
    """
    part = PromptBatchPartitioner()
    groups = _groups({k: 10 for k in "abcd"})
    blocks = [DataBlock(i) for i in range(4)]
    placements: dict = {}
    part._greedy_assign(groups, blocks, placements, p_size=10, s_cut=4)
    # With the caller's cutoff of 4 every size-10 key is a split key.
    assert placements
    assert all(len(ixs) > 1 for ixs in placements.values())
