"""DataBlock / PartitionedBatch structure and invariants."""

from __future__ import annotations

import pytest

from repro.core.batch import BatchInfo, DataBlock, PartitionedBatch
from repro.core.tuples import StreamTuple


def _t(key, weight=1):
    return StreamTuple(ts=0.0, key=key, weight=weight)


def test_batch_info_interval():
    info = BatchInfo(index=2, t_start=4.0, t_end=6.0)
    assert info.interval == 2.0


def test_empty_block():
    block = DataBlock(0)
    assert block.size == 0
    assert block.cardinality == 0
    assert block.tuple_count() == 0
    assert list(block.tuples()) == []
    assert "a" not in block


def test_add_fragment_accumulates():
    block = DataBlock(0)
    block.add_fragment("a", [_t("a"), _t("a")])
    block.add_fragment("a", [_t("a", weight=3)])
    assert block.size == 5
    assert block.cardinality == 1
    assert block.tuple_count() == 3
    assert len(block.fragment("a")) == 3


def test_add_empty_fragment_is_noop():
    block = DataBlock(0)
    block.add_fragment("a", [])
    assert block.cardinality == 0


def test_add_tuple():
    block = DataBlock(0)
    block.add_tuple(_t("x", weight=2))
    assert block.size == 2
    assert "x" in block


def test_remove_fragment():
    block = DataBlock(0)
    block.add_fragment("a", [_t("a", weight=2), _t("a")])
    block.add_fragment("b", [_t("b")])
    chain = block.remove_fragment("a")
    assert len(chain) == 2
    assert block.size == 1
    assert block.cardinality == 1
    assert block.remove_fragment("missing") == []


def test_fragment_sizes():
    block = DataBlock(0)
    block.add_fragment("a", [_t("a", weight=2)])
    block.add_fragment("b", [_t("b"), _t("b")])
    assert block.fragment_sizes() == {"a": 2, "b": 2}


def _chain(key, weights):
    return [StreamTuple(ts=i / 100, key=key, weight=w) for i, w in enumerate(weights)]


def _three_chains():
    chains = {"a": _chain("a", [1, 1, 1]), "b": _chain("b", [2]), "c": _chain("c", [1, 4])}
    weights = [sum(t.weight for t in chain) for chain in chains.values()]
    return chains, weights


def test_adopt_chains_equals_install_fragment_calls():
    chains, weights = _three_chains()
    bulk, single = DataBlock(3), DataBlock(3)
    bulk.adopt_chains(list(chains), chains.values(), weights)
    for (key, chain), weight in zip(chains.items(), weights):
        single.install_fragment(key, chain, weight)
    assert list(bulk.keys) == list(single.keys) == ["a", "b", "c"]
    assert list(bulk.fragment_sizes().items()) == list(single.fragment_sizes().items())
    assert (bulk.size, bulk.cardinality) == (single.size, single.cardinality) == (10, 3)
    for key, chain in chains.items():
        assert bulk.fragment(key) == single.fragment(key) == chain


def test_adopt_chains_takes_the_lists_themselves():
    """Unlike ``install_fragment``, each fragment *is* the handed-over
    list, and later installs extend it in place."""
    chains, weights = _three_chains()
    bulk, single = DataBlock(3), DataBlock(3)
    bulk.adopt_chains(list(chains), chains.values(), weights)
    for (key, chain), weight in zip(chains.items(), weights):
        single.install_fragment(key, chain, weight)
    assert all(bulk.fragment(key) is chain for key, chain in chains.items())
    assert all(single.fragment(key) is not chain for key, chain in chains.items())
    bulk.install_fragment("a", _chain("a", [1]), 1)
    assert len(chains["a"]) == 4 and bulk.size == 11


def _mini_batch():
    info = BatchInfo(0, 0.0, 1.0)
    b0, b1 = DataBlock(0), DataBlock(1)
    b0.add_fragment("a", [_t("a"), _t("a")])
    b0.add_fragment("b", [_t("b")])
    b1.add_fragment("a", [_t("a")])
    b1.add_fragment("c", [_t("c")])
    return PartitionedBatch(info=info, blocks=[b0, b1])


def test_compute_split_keys():
    batch = _mini_batch()
    batch.compute_split_keys()
    assert batch.split_keys == {"a": (0, 1)}
    assert batch.is_split("a")
    assert not batch.is_split("b")


def test_totals_and_distinct_keys():
    batch = _mini_batch()
    assert batch.total_size == 5
    assert batch.total_tuples == 5
    assert batch.num_blocks == 2
    assert batch.distinct_keys() == {"a", "b", "c"}
    assert batch.key_fragment_count() == 4


def test_validate_passes_on_consistent_batch():
    batch = _mini_batch()
    batch.compute_split_keys()
    batch.validate(expected_tuples=5)


def test_validate_detects_tuple_loss():
    batch = _mini_batch()
    with pytest.raises(AssertionError, match="holds 5 tuples"):
        batch.validate(expected_tuples=6)


def test_validate_detects_bogus_split_entry():
    batch = _mini_batch()
    batch.split_keys = {"b": (0, 1)}  # b is only in block 0
    with pytest.raises(AssertionError, match="missing from block"):
        batch.validate()


def test_validate_detects_single_block_split_entry():
    batch = _mini_batch()
    batch.split_keys = {"b": (0,)}
    with pytest.raises(AssertionError, match="lists"):
        batch.validate()
