"""Experiment matrix: grids, the resumable fill runner, trend reports."""

from __future__ import annotations

import pytest

from repro.bench.matrix import (
    FULL_GRID,
    GRIDS,
    MatrixCell,
    QUICK_GRID,
    TINY_GRID,
    fill,
    render_matrix_report,
    run_cell,
    trajectory_rows,
)
from repro.bench.store import ResultsStore, environment_hash

ENV = {"cpu_count": 4, "python": "3.11", "numpy": False}


# ----------------------------------------------------------------------
# grid declaration
def test_grid_sizes():
    assert len(TINY_GRID) == 1
    # 8 single-engine (serial+parallel) + 4 sharded (s2)
    assert len(QUICK_GRID) == 12
    # 36 single-engine + 24 sharded (s2/s4)
    assert len(FULL_GRID) == 60
    assert set(GRIDS) == {"tiny", "quick", "full"}


def test_grid_prunes_faulted_serial_cells():
    for cell in FULL_GRID.cells():
        if cell.fault_profile != "none":
            assert cell.backend == "parallel"


def test_grid_prunes_sharded_cells_to_the_clean_serial_path():
    sharded = [c for c in FULL_GRID.cells() if c.shards]
    assert sharded, "full grid lost its sharded cells"
    for cell in sharded:
        assert cell.backend == "serial"
        assert cell.fault_profile == "none"


def test_shards_axis_preserves_legacy_config_hashes():
    """shards=0 must hash identically to a pre-axis cell (omitted key)."""
    from repro.bench.store import config_hash

    cell = MatrixCell("synd-z1.4", "hash")
    assert cell.shards == 0
    assert "shards" not in cell.params()
    legacy = config_hash(
        {
            "workload": "synd-z1.4",
            "partitioner": "hash",
            "backend": "serial",
            "ingest_kernel": "default",
            "pipeline_depth": 1,
            "fault_profile": "none",
        }
    )
    assert cell.config_hash == legacy
    assert MatrixCell("synd-z1.4", "hash", shards=2).config_hash != legacy


def test_retired_streaming_axis_left_eager_hashes_untouched():
    """Dropping the streaming axis must not move any remaining cell: the
    literal hashes below are what the store recorded before the axis
    was retired, so every eager trajectory still lines up."""
    assert (
        MatrixCell("synd-z1.4", "prompt", backend="parallel").config_hash
        == "b335bf44a8e3d85f"
    )


def test_retired_ingest_kernel_axis_left_hashes_untouched():
    """The axis is gone but its literal still enters every hash, so the
    value the store recorded for this cell before the retirement holds
    (likewise for the retired ``pipeline_depth`` axis)."""
    cell = MatrixCell("tweets", "prompt")
    assert not hasattr(cell, "ingest_kernel")
    assert cell.params()["ingest_kernel"] == "default"
    assert not hasattr(cell, "pipeline_depth")
    assert cell.params()["pipeline_depth"] == 1
    assert cell.config_hash == "863719664f7e6f95"


def test_cell_hash_stable_and_label():
    cell = MatrixCell(workload="tweets", partitioner="prompt")
    again = MatrixCell(workload="tweets", partitioner="prompt")
    assert cell.config_hash == again.config_hash
    assert cell.label() == "tweets/prompt/serial/default/d1/none"


def test_grid_hashes_are_unique():
    hashes = [c.config_hash for c in FULL_GRID.cells()]
    assert len(hashes) == len(set(hashes))


# ----------------------------------------------------------------------
# resumable fill (the acceptance criterion: second run executes zero)
def _counting_runner(executed):
    def runner(cell, grid):
        executed.append(cell.label())
        return {"latency_mean_seconds": 0.1, "stable": 1.0}, {"obs.k": 1}

    return runner


def test_fill_twice_executes_zero_cells_second_time(tmp_path):
    executed: list[str] = []
    with ResultsStore(tmp_path / "r.db") as store:
        first = fill(
            store, QUICK_GRID, git_sha="sha-1", env=ENV,
            runner=_counting_runner(executed),
        )
        assert len(first.executed) == len(QUICK_GRID) == len(executed)
        assert first.skipped == 0

        second = fill(
            store, QUICK_GRID, git_sha="sha-1", env=ENV,
            runner=_counting_runner(executed),
        )
        assert second.executed == []
        assert second.skipped == len(QUICK_GRID)
        assert len(executed) == len(QUICK_GRID)  # nothing ran again


def test_new_sha_invalidates_and_refills(tmp_path):
    executed: list[str] = []
    with ResultsStore(tmp_path / "r.db") as store:
        fill(store, TINY_GRID, git_sha="sha-1", env=ENV,
             runner=_counting_runner(executed))
        fill(store, TINY_GRID, git_sha="sha-2", env=ENV,
             runner=_counting_runner(executed))
        assert len(executed) == 2  # one run per SHA: the trajectory grows
        cell = TINY_GRID.cells()[0]
        hist = store.history(cell.config_hash, "latency_mean_seconds")
        assert [h["git_sha"] for h in hist] == ["sha-1", "sha-2"]


def test_force_reruns_completed_cells(tmp_path):
    executed: list[str] = []
    with ResultsStore(tmp_path / "r.db") as store:
        fill(store, TINY_GRID, git_sha="sha-1", env=ENV,
             runner=_counting_runner(executed))
        fill(store, TINY_GRID, git_sha="sha-1", env=ENV, force=True,
             runner=_counting_runner(executed))
        assert len(executed) == 2
        assert store.cell_count() == 2  # appended, never overwritten


def test_fill_reports_progress(tmp_path):
    seen: list[str] = []
    with ResultsStore(tmp_path / "r.db") as store:
        fill(store, TINY_GRID, git_sha="sha-1", env=ENV,
             runner=_counting_runner([]), progress=lambda c: seen.append(c.label()))
    assert seen == [TINY_GRID.cells()[0].label()]


# ----------------------------------------------------------------------
# a real engine run through one tiny cell
def test_run_cell_real_engine_records_everything(tmp_path):
    with ResultsStore(tmp_path / "r.db") as store:
        report = fill(store, TINY_GRID, git_sha="sha-real")
        assert len(report.executed) == 1
        row = store.cells()[0]
        assert row["git_sha"] == "sha-real"
        # environment fingerprint rode along
        assert row["env"]["cpu_count"] >= 1
        assert "python" in row["env"]
        # observability was forced on: the obs snapshot is non-empty
        assert row["obs"], "matrix cells must carry an obs snapshot"
        metrics = store.metrics_for(row["id"])
        assert metrics["total_tuples"] > 0
        assert metrics["throughput_tuples_per_sec"] > 0
        assert "latency_p95_seconds" in metrics


def test_run_cell_fault_profile_injects_retry():
    cell = MatrixCell(
        workload="synd-z1.4", partitioner="hash", backend="parallel",
        fault_profile="map-crash",
    )
    metrics, obs = run_cell(cell, TINY_GRID)
    assert metrics["task_retries"] >= 1
    assert metrics["stable"] in (0.0, 1.0)


# ----------------------------------------------------------------------
# trend reporting
def _varying_runner(value):
    return lambda cell, grid: ({"latency_mean_seconds": value}, {})


def test_trajectory_rows_and_report(tmp_path):
    with ResultsStore(tmp_path / "r.db") as store:
        for i, sha in enumerate(["sha-1", "sha-2", "sha-3"]):
            fill(store, TINY_GRID, git_sha=sha, env=ENV,
                 runner=_varying_runner(1.0 + i))
        rows = trajectory_rows(store)
        assert len(rows) == 1
        row = rows[0]
        assert row["Runs"] == 3
        assert row["First"] == 1.0 and row["Last"] == 3.0
        assert row["DeltaPct"] == pytest.approx(200.0)
        assert len(row["Trend"]) == 3

        text = render_matrix_report(store)
        assert "latency_mean_seconds" in text
        md = render_matrix_report(store, markdown=True)
        assert md.startswith("### ")
        assert "| Cell |" in md.splitlines()[2]


def test_trajectory_rows_metric_filter(tmp_path):
    with ResultsStore(tmp_path / "r.db") as store:
        fill(store, TINY_GRID, git_sha="s", env=ENV,
             runner=lambda c, g: ({"a": 1.0, "b": 2.0}, {}))
        rows = trajectory_rows(store, metrics=("a",))
        assert [r["Metric"] for r in rows] == ["a"]


def test_trajectory_rows_env_filter(tmp_path):
    other = {"cpu_count": 64, "python": "3.12", "numpy": True}
    with ResultsStore(tmp_path / "r.db") as store:
        fill(store, TINY_GRID, git_sha="s1", env=ENV,
             runner=_varying_runner(1.0))
        fill(store, TINY_GRID, git_sha="s1", env=other,
             runner=_varying_runner(50.0))
        rows = trajectory_rows(store, env_hash=environment_hash(ENV))
        assert len(rows) == 1
        assert rows[0]["Last"] == 1.0


def test_render_report_empty_store(tmp_path):
    with ResultsStore(tmp_path / "r.db") as store:
        assert "(no rows)" in render_matrix_report(store)
        assert "_empty store_" in render_matrix_report(store, markdown=True)
