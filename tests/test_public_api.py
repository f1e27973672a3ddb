"""The frozen v1 public surface: ``repro.__all__`` vs ``docs/api.md``.

Three-way agreement, so the surface cannot drift silently:

1. the literal ``V1_SURFACE`` list below (the freeze itself — changing
   the public API means editing this test, which is the point),
2. ``repro.__all__`` as shipped,
3. the symbol table under "The frozen v1 surface" in ``docs/api.md``.

Everything deeper than ``import repro`` (``repro.engine.*``,
``repro.core.*``, ...) stays importable but carries no stability
promise, so it is deliberately not covered here — with one exception:
the *config surface* (``EngineConfig`` fields, ``make_executor``
keywords) is pinned at the bottom of this file, so a new knob fails a
test until the list is edited on purpose, and so is the driver's one
call into a backend (``ExecutionBackend``'s public methods).
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import repro
from repro.engine import executors, make_executor

DOCS = Path(__file__).resolve().parent.parent / "docs"

#: The curated v1 surface, frozen.  v1 is a superset of v0 — every v0
#: name is still here but two, each with a "Removed" note in
#: docs/api.md: ``CountTree``, removed with its module (no run used it:
#: the tree's traversal is a sort on the final counts), and
#: ``ReduceBucketAllocator`` (a class wrapping one function: Algorithm 3
#: is ``repro.core.bpvc_buckets``, one bucket id per cluster) — plus the
#: topology tier (RunSpec, Topology shapes, sharding).  Additions are allowed (append here and
#: to the docs table); removals or renames are a breaking change and
#: need a deprecation story first.
V1_SURFACE = [
    "AccumulatorConfig",
    "AutoScaler",
    "BatchInfo",
    "ElasticityConfig",
    "EngineConfig",
    "ExecutorKind",
    "MPIWeights",
    "MicroBatchAccumulator",
    "MicroBatchEngine",
    "MultiTenantSource",
    "ObservabilityConfig",
    "PartitionedBatch",
    "PromptBatchPartitioner",
    "PromptConfig",
    "Query",
    "Rebalance",
    "RunObservability",
    "RunResult",
    "RunSpec",
    "ShardRouter",
    "Sharded",
    "ShardedEngine",
    "ShardedRunResult",
    "SingleEngine",
    "StreamTuple",
    "TenantStream",
    "Topology",
    "WindowSpec",
    "__version__",
    "evaluate_partition",
    "make_partitioner",
    "make_router",
    "run",
]

#: every name the v0 freeze shipped that v1 keeps (all but ``CountTree``
#: and ``ReduceBucketAllocator``)
V0_SURFACE = [
    "AccumulatorConfig",
    "AutoScaler",
    "BatchInfo",
    "ElasticityConfig",
    "EngineConfig",
    "ExecutorKind",
    "MPIWeights",
    "MicroBatchAccumulator",
    "MicroBatchEngine",
    "ObservabilityConfig",
    "PartitionedBatch",
    "PromptBatchPartitioner",
    "PromptConfig",
    "Query",
    "RunObservability",
    "RunResult",
    "StreamTuple",
    "WindowSpec",
    "__version__",
    "evaluate_partition",
    "make_partitioner",
    "run",
]


def _documented_surface() -> list[str]:
    """Parse the symbol column of the api.md frozen-surface table."""
    text = (DOCS / "api.md").read_text(encoding="utf-8")
    match = re.search(
        r"^## The frozen v1 surface.*?$(.*?)(?=^## )",
        text,
        re.MULTILINE | re.DOTALL,
    )
    assert match, "docs/api.md lost its 'The frozen v1 surface' section"
    section = match.group(1)
    # Stop at the migration-notes subsection so prose backticks there
    # cannot leak into the parsed surface.
    section = section.split("### ")[0]
    symbols = re.findall(r"^\| `([A-Za-z_][A-Za-z0-9_]*)` \|", section, re.MULTILINE)
    assert symbols, "frozen-surface table has no parseable rows"
    return symbols


def test_all_matches_the_freeze():
    assert list(repro.__all__) == V1_SURFACE


def test_v1_is_a_superset_of_v0():
    assert set(V0_SURFACE) <= set(repro.__all__)


def test_all_is_sorted_and_duplicate_free():
    assert list(repro.__all__) == sorted(set(repro.__all__))


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_docs_table_matches_all():
    documented = _documented_surface()
    assert len(documented) == len(set(documented)), "duplicate doc rows"
    missing = set(repro.__all__) - set(documented)
    extra = set(documented) - set(repro.__all__)
    assert not missing, f"exported but undocumented in api.md: {sorted(missing)}"
    assert not extra, f"documented but not exported: {sorted(extra)}"


def test_run_signature_is_the_documented_one():
    import inspect

    params = inspect.signature(repro.run).parameters
    names = list(params)
    assert names[:2] == ["source", "query"]
    assert params["partitioner"].default == "prompt"
    assert "num_batches" in params
    # v1 keyword-only surface
    assert params["topology"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["engine"].kind is inspect.Parameter.KEYWORD_ONLY
    assert not any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ), "engine config travels as engine=EngineConfig(...), never **kwargs"


def test_runspec_defaults_mirror_run_defaults():
    import inspect

    run_params = inspect.signature(repro.run).parameters
    spec_fields = {f.name: f for f in __import__("dataclasses").fields(repro.RunSpec)}
    assert run_params["partitioner"].default == "prompt"
    assert spec_fields["partitioner"].default == "prompt"
    assert run_params["num_batches"].default == spec_fields["num_batches"].default


# ----------------------------------------------------------------------
# config surface: every knob is listed here on purpose
ENGINE_CONFIG_FIELDS = {
    "batch_interval",
    "num_blocks",
    "num_reducers",
    "cluster",
    "cost_model",
    "early_release",
    "elasticity",
    "batch_sizing",
    "lateness",
    "backpressure",
    "track_outputs",
    "replicate_inputs",
    "executor",
    "executor_workers",
    "run_seed",
    "observability",
}

MAKE_EXECUTOR_KEYWORDS = {"max_workers", "run_seed", "fault_injector"}


def test_engine_config_fields_are_pinned():
    fields = {f.name for f in dataclasses.fields(repro.EngineConfig)}
    assert fields == ENGINE_CONFIG_FIELDS
    assert len(fields) == 16


def test_make_executor_keywords_are_pinned():
    """The parallel backend's fault handling is fixed policy: the two
    budgets are module constants, and neither constructor takes one."""
    params = inspect.signature(make_executor).parameters
    keywords = {
        name
        for name, p in params.items()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    }
    assert keywords == MAKE_EXECUTOR_KEYWORDS
    assert [n for n in params if n not in keywords] == ["name"]
    # ``max_workers`` may also be passed positionally to the class
    assert (
        set(inspect.signature(executors.ParallelExecutor).parameters)
        == MAKE_EXECUTOR_KEYWORDS
    )
    assert executors.MAX_TASK_RETRIES == 2
    assert executors.MAX_POOL_RESURRECTIONS == 2


# ----------------------------------------------------------------------
# one driver shape: a backend runs a batch, and only a process pool is
# concurrent under repro.engine
def test_execution_backend_surface_is_pinned():
    """The driver's one call into a backend is ``run_batch``; there is
    no second, asynchronous submission entry point or handle type."""
    public = {
        name
        for name in vars(executors.ExecutionBackend)
        if not name.startswith("_")
    }
    assert public == {
        "name", "run_batch", "observed_load", "bind_observability", "close",
    }
    assert set(executors.__all__) == {
        "ExecutionBackend",
        "ExecutorKind",
        "SerialExecutor",
        "ParallelExecutor",
        "RunContext",
        "PayloadSerializationError",
        "StaleContextError",
        "EXECUTOR_NAMES",
        "make_executor",
    }


def test_engine_package_starts_no_threads():
    """Nothing under ``repro.engine`` imports ``threading`` or a thread
    pool, and ``engine.py`` (the driver) imports no futures at all."""
    allowed = {"Future", "ProcessPoolExecutor", "BrokenProcessPool"}
    engine_dir = Path(repro.__file__).resolve().parent / "engine"
    for path in sorted(engine_dir.rglob("*.py")):
        futures: set[str] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                module, names = "", {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = {alias.name for alias in node.names}
            else:
                continue
            assert "threading" not in names | {module}, path
            # a bare ``import concurrent.futures`` would hide what is used
            assert not any(n.startswith("concurrent") for n in names), path
            if module.startswith("concurrent.futures"):
                futures |= names
        assert futures <= allowed, (path, futures - allowed)
        if path.name == "engine.py":
            assert not futures, path


# ----------------------------------------------------------------------
# repro.bench: harness, paper figures and standalone benches only
def test_bench_surface_is_pinned():
    """The experiment matrix (store, grids, noise-band gate) is retired:
    simulated metrics are pinned by ``tests/bench/simulated_golden.json``."""
    import repro.bench

    assert sorted(repro.bench.__all__) == [
        "DEFAULT_SHARD_COUNTS",
        "PAPER_TECHNIQUES",
        "SHOOTOUT_TECHNIQUES",
        "ShootoutScenario",
        "ThroughputResult",
        "ThroughputSearch",
        "VocabWeightTable",
        "bench_parallel_speedup",
        "bench_sharding_scaleout",
        "broadcast_wordcount_query",
        "fig10_partition_metrics",
        "fig11_throughput_vs_interval",
        "fig11d_skew_sweep",
        "fig12_elasticity",
        "fig13_latency_distribution",
        "fig14a_post_sort_throughput",
        "fig14b_partition_overhead",
        "fig6_assignment_tradeoffs",
        "format_series",
        "format_table",
        "heavy_count_one",
        "high_skew_verdicts",
        "joint_imbalance_score",
        "partitioner_shootout",
        "render_run",
        "results_dir",
        "run_at_rate",
        "save_results",
        "scaleout_gate",
        "shootout_quality",
        "shootout_runtime",
        "shootout_scenarios",
        "sparkline",
        "table1_dataset_stats",
    ]
