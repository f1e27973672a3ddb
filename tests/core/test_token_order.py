"""``token_order``: numpy's order of int keys equals the string tokens'.

Algorithms 1 and 3 break ties on each key's order token
(:func:`~repro.core.tuples._order_tokens`).  For keys that are all
exactly ``int`` of at most 17 digits,
:func:`~repro.core.tuples.token_order` computes the tokens' string order
in numpy; every other key set (wider ints too) sorts the tokens
themselves.  Either way the result must be the tokens' sort.
"""

from __future__ import annotations

import random

import pytest

from repro.core.tuples import _order_tokens, token_order

INT64_MAX = 2**63 - 1


def _oracle(keys):
    return sorted(range(len(keys)), key=_order_tokens(keys).__getitem__)


def _edges():
    out = [0, 1, -1, INT64_MAX, -INT64_MAX]
    for k in range(1, 19):
        out += [10**k, -(10**k), 10**k - 1, -(10**k - 1), 10**k + 1, 5 * 10**k]
    return out


CASES = {
    "empty": [],
    "one": [7],
    "powers of ten": _edges(),
    "int64 max and min+1": [INT64_MAX, -INT64_MAX, 0, 9, -9],
    "int64 min falls back": [-(2**63), 1, -1, 10],
    "beyond int64 falls back": [2**63, -(2**64), 3, 30],
    "bool": [True, False],
    "bool with int": [True, 2, 10, 0],
    "int and str": [1, "1", "a", 10, -3, "-3"],
    "quotes and escapes": ['a"b', "c'd", "x\\y", "tab\t", "new\nline", "é", ""],
    "tuples": [(1, "a"), (1, "b"), (0, "z")],
    "floats": [1.5, -0.0, 10.0, 2.0],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_token_order_equals_sorting_the_tokens(name):
    keys = CASES[name]
    assert token_order(keys).tolist() == _oracle(keys)


@pytest.mark.parametrize("seed", range(4))
def test_random_int_keys(seed):
    rng = random.Random(seed)
    for _ in range(300):
        width = rng.randrange(1, 20)
        keys = list(
            dict.fromkeys(
                rng.choice((1, -1)) * rng.randrange(10 ** rng.randrange(0, width) * 2)
                * rng.choice((1, 1, 10, 100))
                for _ in range(rng.randrange(1, 80))
            )
        )
        keys = [k for k in keys if abs(k) <= INT64_MAX]
        assert token_order(keys).tolist() == _oracle(keys), keys
