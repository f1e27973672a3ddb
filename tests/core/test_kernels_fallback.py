"""Fallback behavior of the placement kernels.

This module is deliberately numpy-free: it runs on the tier-1 CI step
that uninstalls numpy, where the default ``PromptPartitioner`` must
degrade to the pure-Python reference path with one warning per process
instead of failing the run.  When numpy *is* present the same behavior
is forced by monkeypatching ``kernels.HAVE_NUMPY``, so both
environments exercise the path.
"""

from __future__ import annotations

import pickle
import random
import warnings

import pytest

from repro.core import kernels
from repro.core.batch import BatchInfo
from repro.core.tuples import StreamTuple
from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.partitioners.prompt import PromptPartitioner, ReferencePromptPartitioner
from repro.queries import wordcount_query
from repro.workloads import ReplaySource


def _gen_batch(rng, n, num_keys):
    ts = sorted(rng.uniform(0.0, 1.0) for _ in range(n))
    tuples = [
        StreamTuple(ts=ts[i], key=f"k{int(rng.paretovariate(1.1)) % num_keys}")
        for i in range(n)
    ]
    return tuples, BatchInfo(index=0, t_start=0.0, t_end=1.0)


def _snapshot(batch):
    blocks = [
        (
            b.index,
            b.size,
            b.cardinality,
            [
                (key, [(t.ts, t.key, t.value, t.weight) for t in b.fragment(key)])
                for key in b.keys
            ],
        )
        for b in batch.blocks
    ]
    return pickle.dumps((blocks, list(batch.split_keys.items())))


@pytest.fixture
def no_numpy(monkeypatch):
    """A process that has neither numpy nor yet warned about it."""
    monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
    monkeypatch.setattr(kernels, "_numpy_missing_warned", False)


def test_no_numpy_fallback_warns_and_matches(no_numpy):
    """Without numpy the default path degrades to the oracle, loudly, once."""
    rng = random.Random(123)
    tuples, info = _gen_batch(rng, 400, 30)
    fallback = PromptPartitioner()
    with pytest.warns(RuntimeWarning, match="numpy is not installed") as caught:
        fallback_batch = fallback.partition(tuples, 4, info)
        # neither a second batch nor a second partitioner warns again
        fallback.partition(tuples, 4, info)
        PromptPartitioner().partition(tuples, 4, info)
    assert len(caught) == 1
    assert "ingest_kernel" not in str(caught[0].message)

    oracle_batch = ReferencePromptPartitioner().partition(tuples, 4, info)
    assert _snapshot(oracle_batch) == _snapshot(fallback_batch)

    # the kernel entry points refuse outright rather than mis-compute
    with pytest.raises(RuntimeError):
        kernels.accumulate_batch(tuples, info, fallback.accumulator)
    empty = kernels.KernelIngest(batch=None, keys=[], chains=[], sizes=None)
    with pytest.raises(RuntimeError):
        kernels.plan_greedy(fallback.batch_partitioner, empty, 4)


def test_reference_partitioner_never_warns(no_numpy):
    """The oracle asked for the object-graph path; nothing degraded."""
    rng = random.Random(5)
    tuples, info = _gen_batch(rng, 100, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ReferencePromptPartitioner().partition(tuples, 3, info)


def test_engine_config_numpy_request_degrades(no_numpy):
    """``EngineConfig()`` defaults carry a whole run on the fallback."""
    engine = MicroBatchEngine(
        PromptPartitioner(), wordcount_query(window_length=2.0), EngineConfig()
    )
    # a numpy-free source: the workload generators themselves need numpy
    tuples, _ = _gen_batch(random.Random(3), 300, 40)
    source = ReplaySource(tuples, loop_every=1.0)
    with pytest.warns(RuntimeWarning, match="numpy is not installed") as caught:
        result = engine.run(source, 3)
    assert len(caught) == 1
    assert result.stats.total_tuples > 0
    assert len(result.window_answers) == 3
