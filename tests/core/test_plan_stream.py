"""LedgerBlock: whole-chain entries, promotion, and eager-block equality.

A small key's first fragment is recorded as a plain ``(chain, weight)``
entry and only promoted to a ``SegmentChain`` when a later placement
pass extends, removes or shaves it.  Whatever mix of the two a ledger
holds, ``materialize()`` must equal the eager ``DataBlock`` the same
operations build: fragment order, tuple identity, weights and size.
"""

from __future__ import annotations

from repro.core.batch import DataBlock
from repro.core.batch_partitioner import PromptBatchPartitioner, _split_with_weight
from repro.core.plan_stream import LedgerBlock, SegmentChain, split_segment_chain
from repro.core.tuples import KeyGroup, StreamTuple


def _chain(key, weights, t0=0.0):
    return [
        StreamTuple(ts=t0 + i / 100, key=key, weight=w) for i, w in enumerate(weights)
    ]


def _assert_same(ledger: LedgerBlock, eager: DataBlock) -> None:
    assert (ledger.size, ledger.cardinality) == (eager.size, eager.cardinality)
    assert ledger.fragment_sizes() == eager.fragment_sizes()
    block = ledger.materialize()
    assert list(block.keys) == list(eager.keys)  # fragment (dict) order
    for key in eager.keys:
        got, want = block.fragment(key), eager.fragment(key)
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
    assert block.fragment_sizes() == eager.fragment_sizes()
    assert list(block.fragment_sizes()) == list(eager.fragment_sizes())
    assert (block.size, block.cardinality) == (eager.size, eager.cardinality)
    assert block.index == eager.index


def _whole(ledger, eager, key, weights):
    chain = _chain(key, weights)
    ledger.install_whole_chains([KeyGroup(key, chain)], [sum(weights)])
    eager.install_fragment(key, chain, sum(weights))
    return chain


def test_whole_chains_stay_plain_entries_and_materialize_equal():
    ledger, eager = LedgerBlock(3), DataBlock(3)
    for key, weights in (("a", [1, 1, 1]), ("b", [2]), ("c", [1, 4])):
        _whole(ledger, eager, key, weights)
    assert all(type(f) is tuple for f in ledger._fragments.values())
    assert "b" in ledger and "z" not in ledger
    _assert_same(ledger, eager)


def test_materialize_copies_the_chain_list():
    ledger = LedgerBlock(0)
    chain = _chain("a", [1, 1])
    ledger.install_whole_chains([KeyGroup("a", chain)], [2])
    assert ledger.materialize().fragment("a") is not chain


def test_empty_group_is_skipped_like_the_eager_block():
    ledger, eager = LedgerBlock(0), DataBlock(0)
    ledger.install_whole_chains([KeyGroup("a", [])], [0])
    eager.install_fragment("a", [], 0)
    _assert_same(ledger, eager)


def test_add_segment_records_a_first_whole_chain_plainly():
    ledger, eager = LedgerBlock(0), DataBlock(0)
    whole, part = _chain("a", [1, 2]), _chain("b", [1, 1, 1])
    ledger.add_segment("a", whole, 0, 2, 3)
    eager.install_fragment("a", whole, 3)
    ledger.add_segment("b", part, 1, 3, 2)
    eager.install_fragment("b", part[1:3], 2)
    assert type(ledger._fragments["a"]) is tuple
    assert type(ledger._fragments["b"]) is SegmentChain
    _assert_same(ledger, eager)


def test_extending_a_whole_chain_promotes_it_in_place():
    ledger, eager = LedgerBlock(0), DataBlock(0)
    _whole(ledger, eager, "a", [1, 1])
    _whole(ledger, eager, "b", [3])
    more = _chain("a", [2, 2, 2], t0=5.0)
    ledger.add_segment("a", more, 1, 3, 4)
    eager.install_fragment("a", more[1:3], 4)
    assert type(ledger._fragments["a"]) is SegmentChain
    assert type(ledger._fragments["b"]) is tuple
    assert list(ledger._fragments) == ["a", "b"]  # promotion kept its slot
    _assert_same(ledger, eager)

    # ... and a SegmentChain installed on top of a plain entry
    tail = SegmentChain()
    extra = _chain("b", [1, 1], t0=9.0)
    tail.append(extra, 0, 2, 2)
    ledger.install_fragment("b", tail, 2)
    eager.install_fragment("b", extra, 2)
    _assert_same(ledger, eager)


def test_removing_a_whole_chain_returns_its_segments():
    ledger, eager = LedgerBlock(0), DataBlock(0)
    _whole(ledger, eager, "a", [1, 1])
    chain = _whole(ledger, eager, "b", [2, 1])
    _whole(ledger, eager, "c", [1])
    removed = ledger.remove_fragment("b")
    assert eager.remove_fragment("b") == chain
    assert isinstance(removed, SegmentChain)
    assert (removed.weight, removed.count) == (3, 2)
    assert all(a is b for a, b in zip(removed.to_list(), chain))
    assert ledger.remove_fragment("missing").count == 0
    _assert_same(ledger, eager)

    # re-installing moves it to the end of the fragment order, both ways
    ledger.install_fragment("b", removed, 3)
    eager.install_fragment("b", chain, 3)
    _assert_same(ledger, eager)


def test_shaving_a_whole_chain_matches_the_eager_split():
    for weights in ([1] * 6, [2, 1, 3, 1, 2]):  # unit and weighted shave
        total = sum(weights)
        donor_l, donor_e = LedgerBlock(0), DataBlock(0)
        recv_l, recv_e = LedgerBlock(1), DataBlock(1)
        _whole(donor_l, donor_e, "pad", [1])
        _whole(donor_l, donor_e, "hot", weights)
        _whole(recv_l, recv_e, "cold", [1, 1])

        keep_l, move_l, kept_l = split_segment_chain(
            donor_l.remove_fragment("hot"), total - 3, total
        )
        keep_e, move_e, kept_e = _split_with_weight(
            donor_e.remove_fragment("hot"), total - 3, total
        )
        assert kept_l == kept_e
        donor_l.install_fragment("hot", keep_l, kept_l)
        donor_e.install_fragment("hot", keep_e, kept_e)
        recv_l.install_fragment("hot", move_l, total - kept_l)
        recv_e.install_fragment("hot", move_e, total - kept_e)
        _assert_same(donor_l, donor_e)
        _assert_same(recv_l, recv_e)


def test_rebalance_pass_runs_identically_on_plain_entries():
    """The oracle's own rebalance pass over ledgers holding only plain
    whole-chain entries: relocations and a shave must leave the same
    blocks and the same placement table as on eager blocks."""
    sizes = {"big": 9, "mid": 4, "s1": 2, "s2": 1, "s3": 1}
    chains = {k: _chain(k, [1] * n) for k, n in sizes.items()}
    ledgers = [LedgerBlock(i) for i in range(3)]
    eagers = [DataBlock(i) for i in range(3)]
    for key, chain in chains.items():  # everything starts on block 0
        ledgers[0].install_whole_chains([KeyGroup(key, chain)], [len(chain)])
        eagers[0].install_fragment(key, chain, len(chain))
    single = frozenset((0,))
    placed_l = {key: single for key in chains}
    placed_e = {key: {0} for key in chains}
    planner = PromptBatchPartitioner()
    planner._rebalance_sizes(ledgers, placed_l, 6, split=split_segment_chain)
    planner._rebalance_sizes(eagers, placed_e, 6)
    assert {k: set(v) for k, v in placed_l.items()} == placed_e
    assert list(placed_l) == list(placed_e)
    assert any(len(v) > 1 for v in placed_e.values()), "no shave exercised"
    assert single == {0}  # the shared singleton was rebound, never mutated
    for ledger, eager in zip(ledgers, eagers):
        _assert_same(ledger, eager)
