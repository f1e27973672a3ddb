"""Observability wired through the engine: span trees, metrics, exports.

The determinism-facing cases live here: two traced same-seed runs must
produce *identical span trees* (names/parentage/counts — wall-clock and
pids excluded by construction of ``tree_signature``), and a traced run's
answers must be byte-identical to an untraced one.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine.engine import EngineConfig, MicroBatchEngine
from repro.obs import ObservabilityConfig, parse_prometheus, read_chrome_trace
from repro.partitioners import make_partitioner
from repro.queries import wordcount_query
from repro.workloads import ConstantRate, synd_source

NUM_BATCHES = 3


def _run(executor="serial", obs=ObservabilityConfig(), **cfg_overrides):
    cfg_kwargs = dict(
        batch_interval=1.0,
        num_blocks=3,
        num_reducers=3,
        executor=executor,
        executor_workers=2,
        run_seed=13,
        observability=obs,
    )
    cfg_kwargs.update(cfg_overrides)
    engine = MicroBatchEngine(
        make_partitioner("prompt"),
        wordcount_query(window_length=2.0),
        EngineConfig(**cfg_kwargs),
    )
    source = synd_source(1.0, num_keys=200, arrival=ConstantRate(900.0), seed=3)
    return engine.run(source, NUM_BATCHES)


def test_run_produces_expected_span_tree():
    result = _run()
    tracer = result.observability.tracer
    spans = {s.span_id: s for s in tracer.spans}
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    assert len(by_name["run"]) == 1
    run_span = by_name["run"][0]
    assert run_span.parent_id is None
    assert run_span.attrs["partitioner"] == "prompt"

    assert len(by_name["batch"]) == NUM_BATCHES
    for batch in by_name["batch"]:
        assert batch.parent_id == run_span.span_id

    batch_ids = {b.span_id for b in by_name["batch"]}
    for phase in ("buffer", "partition", "window_merge", "execute"):
        assert len(by_name[phase]) == NUM_BATCHES
        for s in by_name[phase]:
            assert s.parent_id in batch_ids, phase
    # the driver opens an execute span around every run_batch call, so
    # the task phases nest under it
    execute_ids = {e.span_id for e in by_name["execute"]}
    assert len(by_name["shuffle"]) == NUM_BATCHES
    for s in by_name["shuffle"]:
        assert s.parent_id in execute_ids
    for kind in ("map_task", "reduce_task"):
        assert len(by_name[kind]) == NUM_BATCHES * 3
        for s in by_name[kind]:
            assert s.parent_id in execute_ids
            assert {"task_id", "batch", "attempt"} <= s.attrs.keys()
            assert spans[s.parent_id].attrs["batch"] == s.attrs["batch"]


def test_same_seed_runs_produce_identical_span_trees():
    a = _run()
    b = _run()
    sig_a = a.observability.tracer.tree_signature()
    sig_b = b.observability.tracer.tree_signature()
    assert sig_a == sig_b
    assert sig_a  # non-empty


@pytest.mark.parametrize("executor", ["serial", "parallel"])
def test_traced_run_matches_untraced_run(executor):
    traced = _run(executor=executor)
    untraced = _run(executor=executor, obs=None)
    assert pickle.dumps(traced.window_answers) == pickle.dumps(
        untraced.window_answers
    )
    assert traced.stats.records == untraced.stats.records
    assert untraced.observability is not None
    assert not untraced.observability.enabled
    assert len(untraced.observability.tracer) == 0


def test_parallel_task_spans_carry_worker_pids():
    result = _run(executor="parallel")
    tracer = result.observability.tracer
    import os

    driver = os.getpid()
    task_pids = {
        s.pid for s in tracer.spans if s.name in ("map_task", "reduce_task")
    }
    assert task_pids, "no stitched task spans"
    assert driver not in task_pids


def test_engine_metrics_catalog():
    result = _run()
    snap = result.observability.metrics.as_dict()
    assert snap["prompt_batches_total"] == NUM_BATCHES
    assert snap["prompt_tuples_total"] > 0
    assert snap["prompt_batch_latency_seconds"]["count"] == NUM_BATCHES
    assert snap["prompt_partition_plan_seconds"]["count"] == NUM_BATCHES
    assert snap["prompt_partition_buffer_seconds"]["count"] == NUM_BATCHES
    assert snap["prompt_tree_updates_total"] > 0
    assert snap["prompt_partition_bsi{technique=prompt}"] >= 0.0
    assert snap["prompt_partition_bci{technique=prompt}"] >= 0.0
    assert snap["prompt_partition_ksr{technique=prompt}"] > 0.0
    # fault counters register at zero on a clean run
    assert snap["prompt_task_retries_total"] == 0.0
    assert snap["prompt_pool_resurrections_total"] == 0.0


def test_flush_writes_all_configured_exports(tmp_path):
    obs_cfg = ObservabilityConfig(
        trace_path=str(tmp_path / "t.json"),
        metrics_path=str(tmp_path / "m.prom"),
        jsonl_path=str(tmp_path / "run.jsonl"),
    )
    _run(obs=obs_cfg)
    events = read_chrome_trace(tmp_path / "t.json")
    assert {e["name"] for e in events} >= {"run", "batch", "map_task"}
    samples = parse_prometheus((tmp_path / "m.prom").read_text())
    assert samples["prompt_batches_total"] == NUM_BATCHES
    assert (tmp_path / "run.jsonl").stat().st_size > 0


def test_observability_disabled_flag(tmp_path):
    obs_cfg = ObservabilityConfig(enabled=False, trace_path=str(tmp_path / "t.json"))
    result = _run(obs=obs_cfg)
    assert not result.observability.enabled
    assert not (tmp_path / "t.json").exists()
