"""The accumulator-array window against the dict hooks as oracle.

For an additive aggregator whose partials are all exact ``int`` (within
int64) or all ``float``, :class:`~repro.engine.windows.WindowedAggregator`
keeps the answer in one numpy array over a run-scoped key table.  The
oracle is the aggregator's own ``merge_into``/``retract_from`` on a
dict, driven through the same random batch sequences: every answer must
hold the same keys with bit-equal values of the same type, answer
``len``, ``in``, ``sorted`` and ``KeyError`` as a dict does, and pickle
as one.  Every fallback trigger must land on the dict path with the
same answers.
"""

from __future__ import annotations

import math
import pickle
import random
from collections import deque

import numpy as np
import pytest

from repro.engine.columns import KeyColumns
from repro.engine.windows import WindowAnswer, WindowedAggregator
from repro.queries.base import CountAggregator, SumAggregator, SumCountAggregator

SEQUENCES = 150


class _OracleWindow:
    """The window as the dict hooks compute it."""

    def __init__(self, aggregator, batches_per_window):
        self.aggregator = aggregator
        self.size = batches_per_window
        self.cached = deque()
        self.answer = {}

    def add_batch(self, output):
        if len(self.cached) == self.size:
            self.aggregator.retract_from(self.answer, self.cached.popleft())
        self.aggregator.merge_into(self.answer, output)
        self.cached.append(output)
        return dict(self.answer)


def _same_value(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b and (not isinstance(a, float) or math.copysign(1, a) == math.copysign(1, b))


def _assert_answer(got, want, absent):
    assert len(got) == len(want)
    try:
        assert sorted(got) == sorted(want)
    except TypeError:  # keys of mixed types do not order
        assert set(got) == set(want)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert key in got
        assert _same_value(got[key], value), (key, got[key], value)
        assert _same_value(dict(got.items())[key], value)
    for key in absent:
        assert key not in got
        with pytest.raises(KeyError):
            got[key]
    for key in list(want)[:5] + list(absent)[:5]:  # equal keys of other types
        if type(key) is int:
            for alias in (float(key), np.int64(key) if abs(key) < 2**63 else key, key == 1):
                assert (alias in got) == (alias in want), alias
    restored = pickle.loads(pickle.dumps(got))
    assert type(restored) is dict and restored.keys() == want.keys()
    assert all(_same_value(restored[k], v) for k, v in want.items())
    if not any(isinstance(v, float) and math.isnan(v) for v in want.values()):
        assert got == want and (want == got)  # NaN != NaN: only checked above


def _int_batch(rng, keys):
    return {k: rng.choice((1, 2, 3, -1, -2, -3, 5, -5)) for k in rng.sample(keys, rng.randrange(0, len(keys)))}


def _float_batch(rng, keys):
    values = (1e16, -1e16, 1.0, 3.0, -3.0, 0.1, 0.2, -0.3, -0.0, 0.0, 2.5, math.nan)
    return {
        k: rng.choice(values[:-1] if rng.random() < 0.95 else values)
        for k in rng.sample(keys, rng.randrange(0, len(keys)))
    }


def _run(aggregator, batches, size, *, columnar):
    win = WindowedAggregator(aggregator, size)
    oracle = _OracleWindow(aggregator, size)
    keys = {k for b in batches for k in b} | {"never"}
    for batch in batches:
        shown = KeyColumns(list(batch), list(batch.values())) if columnar else batch
        got = win.add_batch(shown)
        want = oracle.add_batch(batch)
        _assert_answer(got, want, keys - want.keys())
        assert len(win) == len(oracle.cached)
    return got


@pytest.mark.parametrize("kind", ["int", "float"])
def test_array_window_equals_the_dict_hooks(kind):
    rng = random.Random(11 if kind == "int" else 12)
    make = _int_batch if kind == "int" else _float_batch
    for n in range(SEQUENCES):
        count = rng.randrange(1, 30)
        ints = list(dict.fromkeys(
            rng.choice((i, -i, 10**6 + i, 2**63 - 1 - i, -(2**63) + 1 + i))
            for i in range(count)
        ))
        mixed = list(dict.fromkeys(rng.choice((f"k{i}", i, (i, "t"))) for i in range(count)))
        size = rng.randrange(1, 30)
        if n % 3 == 0:  # keys of several types
            batches = [make(rng, mixed) for _ in range(size)]
        elif n % 3 == 1:  # exact-int keys up to the int64 edges
            batches = [make(rng, ints) for _ in range(size)]
        else:  # int keys, then others (a bool and an int beyond int64) too
            later = mixed + ints + [True, 2**63]
            batches = [make(rng, ints if i < size // 2 else later) for i in range(size)]
        aggregator = CountAggregator() if kind == "int" and n % 2 else SumAggregator()
        last = _run(aggregator, batches, rng.randrange(1, 13), columnar=n % 4 == 0)
        assert isinstance(last, WindowAnswer)  # never left the array form


def test_churning_keys_do_not_grow_the_key_table():
    """Every batch brings keys never seen before.  The key table holds at
    most twice the keys of the answer and the newest batch, so at most
    four times the keys the window holds (its answer's and its cached
    batches'): it is bounded by the window, not by the run.  The answers,
    including ones returned before a renumbering, stay the oracle's."""
    rng = random.Random(8)
    win = WindowedAggregator(SumAggregator(), 4)
    oracle = _OracleWindow(SumAggregator(), 4)
    pairs = []
    for b in range(60):
        fresh = [f"b{b}k{i}" for i in range(rng.randrange(100, 700))]
        old = [f"b{rng.randrange(b + 1)}k{i}" for i in range(50)]  # some come back
        batch = {k: rng.choice((1, 2, -1, 3)) for k in fresh + old}
        got, want = win.add_batch(batch), oracle.add_batch(batch)
        assert got == want
        pairs.append((got, want))
        held = set(want).union(*oracle.cached)
        assert len(win._table.keys) <= max(2048, 4 * len(held)), b
    seen = {k for got, _ in pairs for k in got}
    assert len(seen) > 3 * 4 * len(held)  # far more keys than the bound
    for got, want in pairs[::7]:
        _assert_answer(got, want, set(rng.sample(sorted(seen), 50)) - want.keys())


def test_cancelled_keys_are_absent_and_reappear():
    win = WindowedAggregator(SumAggregator(), 2)
    win.add_batch({"a": 3.0})
    answer = win.add_batch({"a": -3.0})
    assert "a" not in answer and len(answer) == 0
    with pytest.raises(KeyError):
        answer["a"]
    assert win.add_batch({}) == {"a": -3.0}
    assert answer == {}  # an earlier snapshot does not move


def _fallback_cases():
    big = 2**62
    yield "sumcount", SumCountAggregator(), [{"a": (1.0, 1)}, {"a": (2.0, 2), "b": (0.5, 1)}, {"b": (-0.5, -1)}]
    yield "mixed in one batch", SumAggregator(), [{"a": 1}, {"a": 2, "b": 0.5}, {"b": 1.5}]
    yield "int then float", SumAggregator(), [{"a": 1, "b": 2}, {"a": 0.5}, {"b": -2}, {"a": -1}]
    yield "float then int", SumAggregator(), [{"a": 1.5}, {"a": 2}, {"a": -1.5}]
    yield "beyond int64", SumAggregator(), [{"a": 1}, {"a": 2**63}, {"a": -1}]
    yield "int64 min", SumAggregator(), [{"a": 1}, {"b": -(2**63)}, {"a": 5}]
    yield "sum overflows int64", SumAggregator(), [{"a": big}, {"a": big}, {"a": big}, {"a": -big}]
    yield "numpy scalar", SumAggregator(), [{"a": 1.0}, {"a": np.float64(2.0)}, {"a": 1.0}]
    yield "bool", CountAggregator(), [{"a": 1}, {"a": True}, {"b": False}, {"a": -1}]


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("name,aggregator,batches", list(_fallback_cases()))
def test_every_fallback_trigger_lands_on_the_dict_hooks(name, aggregator, batches, size):
    last = _run(aggregator, batches * 2, size, columnar=False)
    assert type(last) is dict, name


def test_an_aggregator_with_its_own_hooks_keeps_them():
    class Tally(SumAggregator):
        def merge_into(self, answer, output):
            for key, acc in output.items():
                answer[key] = answer.get(key, 0) + acc

    win = WindowedAggregator(Tally(), 2)
    win.add_batch({"a": 1})
    answer = win.add_batch({"a": -1})
    assert answer == {"a": 0}  # the override keeps zeros: its hooks ran


def test_a_run_that_leaves_the_array_form_keeps_its_answers():
    """Batches answered by the array form stay valid after a later batch
    moves the window to the dict hooks."""
    rng = random.Random(3)
    keys = list(range(40))
    batches = [_int_batch(rng, keys) for _ in range(12)] + [{0: 0.5}] + [
        _int_batch(rng, keys) for _ in range(12)
    ]
    win = WindowedAggregator(SumAggregator(), 5)
    oracle = _OracleWindow(SumAggregator(), 5)
    pairs = [(win.add_batch(b), oracle.add_batch(b)) for b in batches]
    assert isinstance(pairs[11][0], WindowAnswer) and type(pairs[-1][0]) is dict
    for got, want in pairs:
        _assert_answer(got, want, set(keys) - want.keys())
