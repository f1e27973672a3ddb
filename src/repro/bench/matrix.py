"""Declarative experiment matrix: grid × engine runs × SQLite store.

An :class:`ExperimentGrid` declares experiments as a cross-product of
the canonical axes (workload × partitioner × backend × fault_profile ×
shards); each cell is keyed by a stable config
hash and executed through the existing :func:`~repro.bench.harness.
run_at_rate` harness with observability enabled, so every recorded row
carries a ``MetricsRegistry.as_dict()`` snapshot alongside its scalar
metrics.

:func:`fill` is the resumable runner: it diffs the grid's hash set
against what the store already holds for the current git SHA and
environment and runs *only* the missing/invalidated cells — running it
twice in a row executes zero cells the second time, while a new commit
(new SHA) re-runs the grid and extends every trajectory by one point.
:func:`trajectory_rows` / :func:`render_matrix_report` read the
trajectories back for the CLI (``repro bench report``), and
:mod:`repro.bench.regress` judges them against per-environment noise
bands (``repro bench regress``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import product
from time import perf_counter
from typing import Any, Callable, Mapping, Optional

from ..engine.engine import EngineConfig
from ..engine.faults import TaskFaultInjector
from ..obs import ObservabilityConfig
from ..partitioners.registry import make_partitioner
from ..queries.wordcount import wordcount_query
from ..workloads import key_churn_source, synd_source, tweets_source
from .harness import run_at_rate
from .report import sparkline
from .reporting import format_table
from .store import (
    CellResult,
    ResultsStore,
    config_hash,
    current_git_sha,
    environment_fingerprint,
    environment_hash,
)

__all__ = [
    "ExperimentGrid",
    "FillReport",
    "GRIDS",
    "MatrixCell",
    "QUICK_GRID",
    "FULL_GRID",
    "TINY_GRID",
    "fill",
    "render_matrix_report",
    "run_cell",
    "trajectory_rows",
]

log = logging.getLogger(__name__)

#: workload name → source factory (rate, num_keys, seed)
MATRIX_WORKLOADS: dict[str, Callable[[float, int, int], Any]] = {
    "synd-z0.8": lambda rate, keys, seed: synd_source(
        0.8, num_keys=keys, rate=rate, seed=seed
    ),
    "synd-z1.4": lambda rate, keys, seed: synd_source(
        1.4, num_keys=keys, rate=rate, seed=seed
    ),
    "tweets": lambda rate, keys, seed: tweets_source(
        vocabulary=keys, rate=rate, seed=seed
    ),
    "churn": lambda rate, keys, seed: key_churn_source(
        rate=rate, num_keys=keys, seed=seed
    ),
}

#: fault profile name → TaskFaultInjector factory (parallel backend only)
FAULT_PROFILES: dict[str, Callable[[], Optional[TaskFaultInjector]]] = {
    "none": lambda: None,
    # one deterministic crash of batch 1's first Map attempt: the
    # retry path must stay inside the noise band of a clean run
    "map-crash": lambda: TaskFaultInjector().crash(1, "map", 0, times=1),
}


@dataclass(frozen=True)
class MatrixCell:
    """One point of the experiment grid, identified by its params."""

    workload: str
    partitioner: str
    backend: str = "serial"
    fault_profile: str = "none"
    #: 0 = single engine; N >= 1 = sharded topology with N engines
    shards: int = 0

    def params(self) -> dict[str, Any]:
        out = {
            "workload": self.workload,
            "partitioner": self.partitioner,
            "backend": self.backend,
            # constants, not axes: the literals keep every stored
            # cell's config hash (and its cross-PR history) intact
            "ingest_kernel": "default",
            "pipeline_depth": 1,
            "fault_profile": self.fault_profile,
        }
        # the shards axis postdates the store's first trajectories;
        # omitting it at its default keeps every legacy cell's config
        # hash (and therefore its cross-PR history) intact
        if self.shards:
            out["shards"] = self.shards
        return out

    @property
    def config_hash(self) -> str:
        return config_hash(self.params())

    def label(self) -> str:
        base = (
            f"{self.workload}/{self.partitioner}/{self.backend}/"
            f"default/d1/{self.fault_profile}"
        )
        if self.shards:
            base = f"{base}/s{self.shards}"
        return base


@dataclass(frozen=True)
class ExperimentGrid:
    """A declared grid plus the shared run-scale knobs."""

    name: str
    workloads: tuple[str, ...]
    partitioners: tuple[str, ...]
    backends: tuple[str, ...] = ("serial",)
    fault_profiles: tuple[str, ...] = ("none",)
    #: 0 = single engine; N >= 1 adds a sharded-topology cell at N
    shard_counts: tuple[int, ...] = (0,)
    #: offered rate / batches / key universe for every cell run
    rate: float = 2_000.0
    num_batches: int = 4
    num_keys: int = 1_000
    seed: int = 11

    def cells(self) -> list[MatrixCell]:
        """The coherent cross-product (fault injection needs the
        parallel backend's retry machinery, so faulted serial cells are
        pruned rather than recorded as trivially identical runs;
        sharded cells stay on the serial clean path — the
        topology's own axes, not the executor's, are what they track)."""
        out = []
        for combo in product(
            self.workloads,
            self.partitioners,
            self.backends,
            self.fault_profiles,
            self.shard_counts,
        ):
            cell = MatrixCell(*combo)
            if cell.fault_profile != "none" and cell.backend != "parallel":
                continue
            if cell.shards and (
                cell.backend != "serial" or cell.fault_profile != "none"
            ):
                continue
            out.append(cell)
        return out

    def __len__(self) -> int:
        return len(self.cells())


#: single-cell smoke grid (CLI tests, quick local sanity)
TINY_GRID = ExperimentGrid(
    name="tiny",
    workloads=("synd-z1.4",),
    partitioners=("hash",),
    rate=800.0,
    num_batches=2,
    num_keys=200,
)

#: the CI grid: small enough to fill from scratch in minutes
QUICK_GRID = ExperimentGrid(
    name="quick",
    workloads=("synd-z1.4", "tweets"),
    partitioners=("hash", "prompt"),
    backends=("serial", "parallel"),
    shard_counts=(0, 2),
    rate=2_000.0,
    num_batches=4,
    num_keys=1_000,
)

#: the full matrix: every axis exercised, including parallel + faults
FULL_GRID = ExperimentGrid(
    name="full",
    workloads=("synd-z0.8", "synd-z1.4", "tweets", "churn"),
    partitioners=("hash", "pk2", "prompt"),
    backends=("serial", "parallel"),
    fault_profiles=("none", "map-crash"),
    shard_counts=(0, 2, 4),
    rate=3_000.0,
    num_batches=5,
    num_keys=2_000,
)

GRIDS: dict[str, ExperimentGrid] = {
    "tiny": TINY_GRID,
    "quick": QUICK_GRID,
    "full": FULL_GRID,
}


# ----------------------------------------------------------------------
def run_cell(
    cell: MatrixCell, grid: ExperimentGrid
) -> tuple[dict[str, float], dict[str, Any]]:
    """Execute one cell; returns ``(metrics, obs_snapshot)``.

    Observability is always on for matrix runs: the per-run metrics
    registry snapshot is what lets ``repro bench regress`` *explain* a
    flagged latency cell (retry spike? resurrection? fallback?) instead of
    merely pointing at it.
    """
    if cell.shards:
        return _run_sharded_cell(cell, grid)
    injector = FAULT_PROFILES[cell.fault_profile]()
    config = EngineConfig(
        batch_interval=0.5,
        num_blocks=4,
        num_reducers=4,
        executor=cell.backend,
        executor_workers=2 if cell.backend == "parallel" else None,
        observability=ObservabilityConfig(enabled=True),
    )
    source_factory = lambda rate: MATRIX_WORKLOADS[cell.workload](  # noqa: E731
        rate, grid.num_keys, grid.seed
    )
    started = perf_counter()
    result = run_at_rate(
        make_partitioner(cell.partitioner),
        wordcount_query(window_length=2.0),
        config,
        source_factory,
        grid.rate,
        grid.num_batches,
        task_fault_injector=injector,
    )
    wall = perf_counter() - started
    stats = result.stats
    metrics = {
        "wall_seconds": wall,
        "throughput_tuples_per_sec": stats.throughput(),
        "latency_mean_seconds": stats.mean_latency(),
        "latency_p95_seconds": stats.p95_latency(),
        "load_mean": stats.mean_load(),
        "queue_delay_max_seconds": stats.max_queue_delay(),
        "total_tuples": float(stats.total_tuples),
        "stable": 1.0 if result.stable else 0.0,
        "task_retries": float(result.executor_task_retries),
        "executor_fallbacks": float(result.executor_fallbacks),
    }
    obs = result.observability.metrics.as_dict() if result.observability else {}
    return metrics, obs


def _run_sharded_cell(
    cell: MatrixCell, grid: ExperimentGrid
) -> tuple[dict[str, float], dict[str, Any]]:
    """A sharded-topology cell: the cell workload becomes a 2-tenant
    union (seed-offset copies, each at half the offered rate) fanned
    over ``cell.shards`` engines.  Metric names match the single-engine
    path so shard trajectories render in the same report columns;
    per-shard values fold the way the semantics demand (throughput and
    retries sum, latency and queue delay take the worst shard)."""
    from ..engine.sharding import ShardedEngine
    from ..workloads.tenants import MultiTenantSource, TenantStream

    make = MATRIX_WORKLOADS[cell.workload]
    union = MultiTenantSource(
        [
            TenantStream(
                f"tenant-{i}",
                make(grid.rate / 2, grid.num_keys, grid.seed + i),
            )
            for i in range(2)
        ]
    )
    config = EngineConfig(
        batch_interval=0.5,
        num_blocks=4,
        num_reducers=4,
        observability=ObservabilityConfig(enabled=True),
    )
    engine = ShardedEngine(
        cell.partitioner,
        wordcount_query(window_length=2.0),
        config,
        num_shards=cell.shards,
    )
    started = perf_counter()
    result = engine.run(union, num_batches=grid.num_batches)
    wall = perf_counter() - started
    shard_stats = [r.stats for r in result.shard_results]
    metrics = {
        "wall_seconds": wall,
        "throughput_tuples_per_sec": result.throughput(),
        "latency_mean_seconds": max(s.mean_latency() for s in shard_stats),
        "latency_p95_seconds": max(s.p95_latency() for s in shard_stats),
        "load_mean": result.mean_load(),
        "queue_delay_max_seconds": max(
            s.max_queue_delay() for s in shard_stats
        ),
        "total_tuples": float(result.total_tuples()),
        "stable": 1.0 if result.stable else 0.0,
        "task_retries": float(
            sum(r.executor_task_retries for r in result.shard_results)
        ),
        "executor_fallbacks": float(
            sum(r.executor_fallbacks for r in result.shard_results)
        ),
    }
    obs = result.observability.metrics.as_dict() if result.observability else {}
    return metrics, obs


# ----------------------------------------------------------------------
@dataclass
class FillReport:
    """What one resumable ``fill`` pass did."""

    grid: str
    git_sha: str
    env_hash: str
    total: int
    executed: list[str] = field(default_factory=list)

    @property
    def skipped(self) -> int:
        return self.total - len(self.executed)


def fill(
    store: ResultsStore,
    grid: ExperimentGrid,
    *,
    force: bool = False,
    git_sha: str | None = None,
    env: Mapping[str, Any] | None = None,
    runner: Callable[[MatrixCell, ExperimentGrid], tuple[dict, dict]] | None = None,
    progress: Callable[[MatrixCell], None] | None = None,
) -> FillReport:
    """Run the grid's missing/invalidated cells and record them.

    A cell is *complete* when the store already holds its config hash
    for the current ``(git SHA, environment)`` pair — so the second
    consecutive ``fill`` executes nothing, while a new commit or a
    different machine refills the grid, growing each trajectory.
    ``force`` re-runs everything regardless (fresh rows are appended,
    never overwritten: history is immutable).
    """
    fingerprint = dict(env) if env is not None else environment_fingerprint()
    sha = git_sha or current_git_sha()
    ehash = environment_hash(fingerprint)
    done = store.completed_hashes(git_sha=sha, env_hash=ehash)
    execute = runner or run_cell
    report = FillReport(grid=grid.name, git_sha=sha, env_hash=ehash, total=len(grid))
    for cell in grid.cells():
        if not force and cell.config_hash in done:
            continue
        if progress is not None:
            progress(cell)
        metrics, obs = execute(cell, grid)
        store.record(
            CellResult(
                params=cell.params(),
                metrics=metrics,
                obs=obs,
                git_sha=sha,
                env=fingerprint,
                source="matrix",
                label=cell.label(),
            )
        )
        report.executed.append(cell.label())
        log.info("filled cell %s (%s)", cell.label(), cell.config_hash)
    return report


# ----------------------------------------------------------------------
def trajectory_rows(
    store: ResultsStore,
    *,
    metrics: tuple[str, ...] | None = None,
    env_hash: str | None = None,
) -> list[dict[str, Any]]:
    """One report row per (cell, metric) trajectory in the store."""
    rows = []
    for series in store.trajectories(env_hash=env_hash):
        if metrics and series["metric"] not in metrics:
            continue
        values = series["values"]
        first, last = values[0], values[-1]
        delta = ((last - first) / abs(first) * 100.0) if first else 0.0
        rows.append(
            {
                "Cell": series["label"],
                "Metric": series["metric"],
                "Runs": len(values),
                "First": first,
                "Last": last,
                "DeltaPct": delta,
                "Trend": sparkline(values),
                "ConfigHash": series["config_hash"],
            }
        )
    return rows


def render_matrix_report(
    store: ResultsStore,
    *,
    metrics: tuple[str, ...] | None = None,
    env_hash: str | None = None,
    markdown: bool = False,
    title: str = "Experiment matrix: metric trajectories",
) -> str:
    """The cross-PR trajectory table (text or markdown)."""
    rows = trajectory_rows(store, metrics=metrics, env_hash=env_hash)
    columns = ["Cell", "Metric", "Runs", "First", "Last", "DeltaPct", "Trend"]
    if not markdown:
        return format_table(rows, columns=columns, title=title)
    lines = [f"### {title}", ""]
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join(" --- " for _ in columns) + "|")
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                value = f"{value:.3f}"
            cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    if not rows:
        lines.append("| _empty store_ |" + " |" * (len(columns) - 1))
    return "\n".join(lines)
