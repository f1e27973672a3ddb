"""Dispatch-byte accounting for the worker-resident run context.

The parallel backend broadcasts the run-invariant slice (query,
allocation callable, cost model, fault table, trace flag, run seed)
once per pool generation and ships per-task *deltas*.  These tests pin
the accounting contract around that design:

- delta payloads must not contain the context slice (growing the query
  grows the context blob, never the per-task payloads);
- the context is installed exactly once per pool generation — one
  install for a clean run, one more per resurrection;
- byte counters are deterministic: two same-seed runs report identical
  totals, batch by batch;
- a delta stamped with a generation the workers don't hold fails safe
  into the serial fallback with the answer unchanged;
- the metrics/trace plumbing (``prompt_task_payload_bytes``,
  ``prompt_context_install_total``, the ``payload`` trace-summary
  section) agrees with the executor's own counters.
"""

from __future__ import annotations

import pickle

import pytest

from repro.bench.payload import broadcast_wordcount_query
from repro.core.batch import BatchInfo
from repro.core.tuples import StreamTuple
from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.engine.executors import ParallelExecutor
from repro.engine.faults import TaskFaultInjector
from repro.engine.tasks import TaskCostModel, execute_batch_tasks
from repro.obs import ObservabilityConfig
from repro.obs.export import summarize_trace
from repro.partitioners import HashPartitioner
from repro.partitioners.registry import make_partitioner
from repro.queries.base import Query, SumAggregator
from repro.queries.wordcount import count_one
from repro.workloads.arrival import ConstantRate
from repro.workloads.synd import synd_source

INFO = BatchInfo(0, 0.0, 1.0)


def _tuples(n=60, keys=6):
    return [
        StreamTuple(ts=i * 0.01, key=f"k{i % keys}", value=i) for i in range(n)
    ]


def _batch(info=INFO, p=3):
    part = HashPartitioner()
    return part.partition(_tuples(), p, info), part


def _query(map_fn=count_one, name="q"):
    return Query(name=name, aggregator=SumAggregator(), map_fn=map_fn)


def _engine_config(**kw):
    kw.setdefault("batch_interval", 1.0)
    kw.setdefault("num_blocks", 4)
    kw.setdefault("num_reducers", 4)
    kw.setdefault("executor", "parallel")
    kw.setdefault("executor_workers", 2)
    kw.setdefault("run_seed", 7)
    return EngineConfig(**kw)


def _run(config, *, num_batches=3, rate=600.0, seed=7, query=None):
    source = synd_source(
        1.2, num_keys=300, arrival=ConstantRate(rate), seed=seed
    )
    engine = MicroBatchEngine(
        make_partitioner("prompt"), query or _query(), config
    )
    return engine.run(source, num_batches)


# ----------------------------------------------------------------------
# deltas exclude the context slice
# ----------------------------------------------------------------------
def test_delta_payloads_exclude_the_context_slice():
    """Growing the query's broadcast table must grow the *context blob*
    and leave every per-task payload byte-for-byte the same size."""
    small_q = broadcast_wordcount_query(3.0, 50, name="small")
    big_q = broadcast_wordcount_query(3.0, 20_000, name="big")
    blob_growth = len(pickle.dumps(big_q)) - len(pickle.dumps(small_q))
    assert blob_growth > 50_000  # the knob actually moved

    # integer keys inside both vocabularies, so the table is really
    # consulted and both queries compute the same weights
    part = HashPartitioner()
    batch = part.partition(
        [StreamTuple(ts=i * 0.01, key=i % 6, value=i) for i in range(60)],
        3,
        INFO,
    )

    def dispatch_bytes(query):
        with ParallelExecutor(2) as backend:
            execution = backend.run_batch(batch, query, part, 2, TaskCostModel())
            assert backend.fallbacks == 0
            assert backend.context_installs == 1
            return execution.payload_bytes, backend.context_bytes

    small_delta, small_ctx = dispatch_bytes(small_q)
    big_delta, big_ctx = dispatch_bytes(big_q)

    # deltas are query-blind: the table shows up in the broadcast blob
    assert big_delta == small_delta > 0
    assert big_ctx - small_ctx > blob_growth // 2


# ----------------------------------------------------------------------
# install cadence: once per pool generation
# ----------------------------------------------------------------------
def test_context_installs_once_across_batches():
    part = HashPartitioner()
    query = _query()
    cm = TaskCostModel()
    per_batch = []
    with ParallelExecutor(2) as backend:
        for k in range(3):
            info = BatchInfo(k, float(k), float(k + 1))
            batch = part.partition(_tuples(), 3, info)
            execution = backend.run_batch(batch, query, part, 2, cm)
            per_batch.append(execution.context_installs)
        assert backend.context_installs == 1
    # attribution: the first batch paid for the broadcast, later ones rode it
    assert per_batch == [1, 0, 0]


def test_resurrection_reinstalls_exactly_once():
    batch, part = _batch()
    query = _query()
    injector = TaskFaultInjector().poison(0, "map", 1)
    with ParallelExecutor(2, fault_injector=injector) as backend:
        execution = backend.run_batch(batch, query, part, 2, TaskCostModel())
    assert execution.backend == "parallel"
    assert execution.pool_resurrections == 1
    # one install for the original pool + exactly one for the rebuilt pool
    assert backend.context_installs == 2
    assert execution.context_installs == 2
    assert backend.context_bytes == 2 * (backend.context_bytes // 2)
    reference = execute_batch_tasks(batch, query, part, 2, TaskCostModel())
    assert pickle.dumps(execution.batch_output()) == pickle.dumps(
        reference.batch_output()
    )


# ----------------------------------------------------------------------
# stale generations fail safe
# ----------------------------------------------------------------------
def test_stale_generation_falls_back_to_serial():
    part = HashPartitioner()
    query = _query()
    cm = TaskCostModel()
    with ParallelExecutor(2) as backend:
        batch = part.partition(_tuples(), 3, INFO)
        first = backend.run_batch(batch, query, part, 2, cm)
        assert first.backend == "parallel"
        # Simulate a driver/worker generation skew: the driver stamps
        # deltas with a generation the resident workers never installed.
        backend._generation += 1
        batch2 = part.partition(_tuples(), 3, BatchInfo(1, 1.0, 2.0))
        second = backend.run_batch(batch2, query, part, 2, cm)
        assert second.backend == "serial"
        assert backend.fallbacks == 1
        assert "StaleContext" in backend.last_fallback_reason
        reference = execute_batch_tasks(batch2, query, part, 2, cm)
        assert second.batch_output() == reference.batch_output()


# ----------------------------------------------------------------------
# determinism of the counters themselves
# ----------------------------------------------------------------------
def test_same_seed_runs_report_identical_byte_counters():
    results = [_run(_engine_config()) for _ in range(2)]
    a, b = results
    assert a.executor_payload_bytes == b.executor_payload_bytes > 0
    assert a.executor_context_installs == b.executor_context_installs == 1
    assert a.executor_context_bytes == b.executor_context_bytes > 0
    assert [r.payload_bytes for r in a.stats.records] == [
        r.payload_bytes for r in b.stats.records
    ]
    assert [r.context_installs for r in a.stats.records] == [
        r.context_installs for r in b.stats.records
    ]
    assert a.stats.total_payload_bytes() == a.executor_payload_bytes
    assert a.stats.total_context_bytes() == a.executor_context_bytes


# ----------------------------------------------------------------------
# metrics and trace plumbing
# ----------------------------------------------------------------------
def test_payload_metrics_and_trace_section_match_the_counters(tmp_path, monkeypatch):
    trace_path = tmp_path / "run.trace.json"
    config = _engine_config(
        observability=ObservabilityConfig(trace_path=str(trace_path))
    )
    map_payloads = []
    pickle_payload = ParallelExecutor._pickle_payload

    def recording(self, item):
        payload = pickle_payload(self, item)
        if len(item) == 6:  # a Map delta; Reduce deltas have 4 fields
            map_payloads.append(payload)
        return payload

    monkeypatch.setattr(ParallelExecutor, "_pickle_payload", recording)
    result = _run(config)
    snapshot = result.observability.metrics.as_dict()

    # a Map task is shipped value columns, never tuple objects
    assert len(map_payloads) == 3 * 4
    assert not any(b"StreamTuple" in payload for payload in map_payloads)
    assert sum(map(len, map_payloads)) / result.stats.total_tuples <= 12

    histogram = snapshot["prompt_task_payload_bytes"]
    assert histogram["count"] == result.stats.total_task_attempts()
    assert histogram["sum"] == result.executor_payload_bytes
    assert snapshot["prompt_context_install_total"] == 1
    assert result.executor_context_installs == 1

    payload = summarize_trace(trace_path)["payload"]
    # clean run: every attempt won, so stitched spans cover all bytes
    assert payload["task_payload_bytes"] == result.executor_payload_bytes
    assert payload["tasks_with_payload"] == result.stats.total_task_attempts()
    assert payload["context_installs"] == 1
    assert payload["context_bytes"] == result.executor_context_bytes
    assert payload["mean_bytes_per_task"] == pytest.approx(
        result.executor_payload_bytes / result.stats.total_task_attempts()
    )


def test_serial_backend_reports_zero_dispatch_bytes():
    result = _run(_engine_config(executor="serial"))
    assert result.executor_payload_bytes == 0
    assert result.executor_context_installs == 0
    assert all(r.payload_bytes == 0 for r in result.stats.records)
