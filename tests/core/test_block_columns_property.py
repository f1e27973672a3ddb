"""Property suite: the column-form ``DataBlock`` is the dict-form block.

A block holds its fragments as three aligned columns (keys, tuple
chains, weights) and builds its key -> position index only when a
lookup needs it.  The block it replaced kept two dicts; a frozen copy of
that block lives here as the oracle.  Random sequences of every mutation
(``add_tuple``, ``add_fragment``, ``install_fragment``,
``adopt_fragment``, ``adopt_chains``, ``remove_fragment``) run on both,
and after every step they must agree on key order, chain identity
(adopted lists are the lists handed over, installed ones are copies),
``fragment_sizes()``, ``size``, ``cardinality``, membership,
``tuples()``, ``fragment()`` and ``map_input()``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.batch import DataBlock
from repro.core.tuples import StreamTuple

SEQUENCES = 400
STEPS = 40
KEYS = ["a", "b", "c", "d", "e", "f", 7, 11]


class _DictBlock:
    """The dict-based block as it was before the column form (frozen)."""

    def __init__(self, index):
        self.index = index
        self._fragments = {}
        self._fragment_weights = {}
        self._weight = 0

    def add_fragment(self, key, tuples):
        self.install_fragment(key, tuples, sum(t.weight for t in tuples))

    def add_tuple(self, t):
        self.add_fragment(t.key, (t,))

    def install_fragment(self, key, tuples, weight):
        if not tuples:
            return
        chain = self._fragments.get(key)
        if chain is None:
            self._fragments[key] = list(tuples)
            self._fragment_weights[key] = weight
        else:
            chain.extend(tuples)
            self._fragment_weights[key] += weight
        self._weight += weight

    def adopt_fragment(self, key, chain, weight):
        self._fragments[key] = chain
        self._fragment_weights[key] = weight
        self._weight += weight

    def adopt_chains(self, keys, chains, weights):
        self._fragments.update(zip(keys, chains))
        self._fragment_weights.update(zip(keys, weights))
        self._weight += sum(weights)

    def remove_fragment(self, key):
        chain = self._fragments.pop(key, None)
        if chain is None:
            return []
        self._weight -= self._fragment_weights.pop(key)
        return chain

    @property
    def size(self):
        return self._weight

    @property
    def cardinality(self):
        return len(self._fragments)

    @property
    def keys(self):
        return self._fragments.keys()

    def fragment(self, key):
        return self._fragments.get(key, [])

    def map_input_columns(self):
        return {k: [t.value for t in chain] for k, chain in self._fragments.items()}

    def fragment_sizes(self):
        return dict(self._fragment_weights)

    def tuples(self):
        for chain in self._fragments.values():
            yield from chain

    def tuple_count(self):
        return sum(len(chain) for chain in self._fragments.values())

    def __contains__(self, key):
        return key in self._fragments


def _chain(rng, key):
    return [
        StreamTuple(ts=rng.random(), key=key, value=rng.randint(-9, 9),
                    weight=rng.randint(1, 4))
        for _ in range(rng.randint(1, 4))
    ]


def _same_tuples(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _check(new, old, handed_new, handed_old, where):
    assert list(new.keys) == list(old.keys), where
    assert list(new.fragment_sizes().items()) == list(old.fragment_sizes().items())
    assert (new.size, new.cardinality, new.tuple_count()) == (
        old.size, old.cardinality, old.tuple_count(),
    ), where
    assert _same_tuples(list(new.tuples()), list(old.tuples())), where
    for key in KEYS:
        assert (key in new) == (key in old), where
        assert _same_tuples(new.fragment(key), old.fragment(key)), where
        assert (new.fragment(key) is handed_new.get(key)) == (
            old.fragment(key) is handed_old.get(key)
        ), where
    wire = new.map_input()
    assert (wire.index, wire.size, wire.cardinality) == (
        old.index, old.size, old.cardinality,
    ), where
    assert list(zip(wire.keys, wire.fragments)) == list(
        old.map_input_columns().items()
    ), where


@pytest.mark.parametrize("chunk", range(4))
def test_column_block_matches_dict_block(chunk):
    ops = {name: 0 for name in (
        "add_tuple", "add_fragment", "install_fragment", "adopt_fragment",
        "adopt_chains", "remove_fragment",
    )}
    for seq in range(chunk, SEQUENCES, 4):
        rng = random.Random(5100 + seq)
        new, old = DataBlock(seq), _DictBlock(seq)
        handed_new, handed_old = {}, {}
        for step in range(STEPS):
            absent = [k for k in KEYS if k not in old]
            before = (old.size, list(old.keys))
            ranked = new.ranks
            op = rng.choice(list(ops))
            key = rng.choice(KEYS)
            if op == "add_tuple":
                t = _chain(rng, key)[0]
                new.add_tuple(t)
                old.add_tuple(t)
            elif op == "add_fragment":
                chain = _chain(rng, key) if rng.random() < 0.9 else []
                new.add_fragment(key, chain)
                old.add_fragment(key, chain)
            elif op == "install_fragment":
                chain = _chain(rng, key)
                weight = sum(t.weight for t in chain)
                new.install_fragment(key, chain, weight)
                old.install_fragment(key, chain, weight)
            elif op == "adopt_fragment":
                if not absent:
                    continue
                key = rng.choice(absent)
                chain = _chain(rng, key)
                handed_new[key], handed_old[key] = chain[:], chain[:]
                weight = sum(t.weight for t in chain)
                new.adopt_fragment(key, handed_new[key], weight)
                old.adopt_fragment(key, handed_old[key], weight)
            elif op == "adopt_chains":
                keys = rng.sample(absent, rng.randint(0, len(absent)))
                chains = [_chain(rng, k) for k in keys]
                weights = [sum(t.weight for t in c) for c in chains]
                was_empty = not old.cardinality
                ranks = np.array(rng.sample(range(100), len(keys)), dtype=np.int16)
                for k, c in zip(keys, chains):
                    handed_new[k], handed_old[k] = c[:], c[:]
                new.adopt_chains(keys, [handed_new[k] for k in keys], weights, ranks)
                old.adopt_chains(keys, [handed_old[k] for k in keys], weights)
                # only a block filled by one bulk install keeps its ranks
                assert (new.ranks is ranks) == was_empty
            else:
                got_new, got_old = new.remove_fragment(key), old.remove_fragment(key)
                assert _same_tuples(got_new, got_old)
                assert (got_new is handed_new.pop(key, None)) == (
                    got_old is handed_old.pop(key, None)
                )
            if op != "adopt_chains":
                # any change to the block drops its ranks
                changed = (old.size, list(old.keys)) != before
                assert new.ranks is (None if changed else ranked), (seq, step, op)
            ops[op] += 1
            _check(new, old, handed_new, handed_old, (seq, step, op))
    assert min(ops.values()) > 300, ops
