"""Differential harness: the placement kernels are bit-identical end-to-end.

The kernel property suite (tests/core) proves the partitioner-level
contract; this harness closes the loop at the engine level: a full
windowed run on the default ``PromptPartitioner`` (array kernels) must
produce byte-identical windowed answers and equal batch records to the
same seeded run on a ``SpecPromptPartitioner`` (Algorithms 1-2 as the
paper prints them, ``tests/oracle/prompt_spec.py``) — across workload
skews, the weighted-tuple path, and the ``prompt-exact`` ablation.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.partitioners import make_partitioner
from repro.partitioners.prompt import PromptPartitioner
from repro.queries import wordcount_query
from repro.workloads import ConstantRate, synd_source, tweets_source

from ..oracle.prompt_spec import SpecPromptPartitioner

NUM_BATCHES = 5

WORKLOADS = {
    "synd-mild": lambda: synd_source(
        0.6, num_keys=400, arrival=ConstantRate(1_200.0), seed=5
    ),
    "synd-skewed": lambda: synd_source(
        1.6, num_keys=400, arrival=ConstantRate(1_200.0), seed=7
    ),
    "tweets": lambda: tweets_source(rate=1_000.0, seed=42),
}


def _run(workload, partitioner):
    cfg = EngineConfig(
        batch_interval=1.0, num_blocks=4, num_reducers=4, run_seed=13
    )
    engine = MicroBatchEngine(
        partitioner, wordcount_query(window_length=3.0), cfg
    )
    return engine.run(WORKLOADS[workload](), NUM_BATCHES)


def _assert_equivalent(python_run, numpy_run):
    # per-window pickles, same rationale as the executor harness: the
    # object-sharing graph across windows may differ without any
    # content difference, so windows are compared one at a time.
    assert len(python_run.window_answers) == len(numpy_run.window_answers)
    for p_window, n_window in zip(
        python_run.window_answers, numpy_run.window_answers
    ):
        assert pickle.dumps(p_window) == pickle.dumps(n_window)
    assert python_run.stats.records == numpy_run.stats.records
    assert python_run.stable == numpy_run.stable
    assert len(python_run.state_store) == len(numpy_run.state_store)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_numpy_kernel_matches_python_end_to_end(workload):
    kernel = make_partitioner("prompt")
    assert type(kernel) is PromptPartitioner
    _assert_equivalent(
        _run(workload, SpecPromptPartitioner()), _run(workload, kernel)
    )


def test_numpy_kernel_matches_python_exact_updates():
    _assert_equivalent(
        _run("synd-skewed", SpecPromptPartitioner(exact_updates=True)),
        _run("synd-skewed", PromptPartitioner(exact_updates=True)),
    )
