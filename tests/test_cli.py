"""CLI: argument handling and experiment dispatch."""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, main
from repro.engine.sharding import ROUTER_NAMES
from repro.partitioners import PARTITIONER_NAMES, make_partitioner


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_requires_known_experiment():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_run_table1(capsys):
    assert main(["run", "table1", "--no-save"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Tweets" in out


def test_run_fig6(capsys):
    assert main(["run", "fig6", "--no-save"]) == 0
    out = capsys.readouterr().out
    assert "Prompt (Algorithm 2)" in out


def test_run_fig10_with_dataset(capsys):
    assert main(["run", "fig10", "--dataset", "tpch", "--no-save"]) == 0
    out = capsys.readouterr().out
    assert "tpch" in out
    assert "prompt" in out


def test_run_fig14b(capsys):
    assert main(["run", "fig14b", "--no-save"]) == 0
    out = capsys.readouterr().out
    assert "OverheadPct" in out


def test_run_saves_results(tmp_path, capsys, monkeypatch):
    import repro.bench.reporting as reporting
    import repro.cli as cli

    monkeypatch.setattr(reporting, "results_dir", lambda: tmp_path)
    monkeypatch.setattr(cli, "save_results", reporting.save_results)
    assert main(["run", "fig6"]) == 0
    assert (tmp_path / "cli_fig6.json").exists()


def test_quickstart_command(capsys):
    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out


def test_quickstart_quiet_suppresses_reporting(capsys):
    assert main(["quickstart", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_quickstart_writes_trace_and_metrics(tmp_path, capsys):
    import json

    from repro.obs import parse_prometheus

    trace = tmp_path / "t.json"
    metrics = tmp_path / "m.prom"
    assert main(
        ["quickstart", "--trace", str(trace), "--metrics", str(metrics)]
    ) == 0
    out = capsys.readouterr().out
    assert f"trace written to {trace}" in out
    assert f"metrics written to {metrics}" in out
    events = json.loads(trace.read_text())["traceEvents"]
    assert {e["name"] for e in events} >= {"run", "batch", "map_task", "shuffle"}
    samples = parse_prometheus(metrics.read_text())
    assert samples["prompt_batches_total"] == 12.0


def test_run_quickstart_experiment_with_trace(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(
        ["run", "quickstart", "--no-save", "--trace", str(trace)]
    ) == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert trace.exists()


def test_trace_summarize(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(["quickstart", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["trace", "summarize", str(trace), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "per-phase breakdown:" in out
    for phase in ("run", "batch", "partition", "map_task", "reduce_task"):
        assert phase in out
    assert "slowest tasks:" in out


def test_log_level_streams_diagnostics_to_stderr(capsys):
    assert main(["quickstart", "--log-level", "info"]) == 0
    captured = capsys.readouterr()
    assert "throughput" in captured.out
    assert "repro.engine" in captured.err


@pytest.mark.parametrize("name", PARTITIONER_NAMES)
def test_every_registry_name_round_trips(name):
    """Each registry name must parse as ``--partitioner``, construct,
    and survive the pickling the parallel backend's run context needs."""
    from repro.cli import _build_parser

    args = _build_parser().parse_args(["quickstart", "--partitioner", name])
    assert args.partitioner == name
    part = make_partitioner(name)
    assert part.name == name or name.startswith("prompt")
    restored = pickle.loads(pickle.dumps(part))
    assert restored.name == part.name
    allocation = part.reduce_allocation()
    assert pickle.loads(pickle.dumps(allocation)) is not None


@pytest.mark.parametrize("name", PARTITIONER_NAMES)
def test_every_registry_name_is_documented(name):
    """doc-sync: the API reference must list every technique."""
    api = (Path(__file__).resolve().parents[1] / "docs" / "api.md").read_text()
    assert f"`{name}`" in api, f"{name} missing from docs/api.md"


def test_quickstart_accepts_a_partitioner(capsys):
    assert main(["quickstart", "--partitioner", "d-choices"]) == 0
    assert "throughput" in capsys.readouterr().out


def test_quickstart_rejects_unknown_partitioner():
    with pytest.raises(SystemExit):
        main(["quickstart", "--partitioner", "nonesuch"])


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--backend", "parallel", "--workers", "0"], "executor_workers"),
        (["--task-timeout", "1"], "unrecognized arguments"),
    ],
)
def test_quickstart_bad_config_is_a_usage_error(flags, message, capsys):
    """An invalid or retired flag exits 2 with one ``repro: error:``
    line on stderr, not a ``ValueError`` traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main(["quickstart", *flags])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("repro: error: ")
    assert message in err


# ----------------------------------------------------------------------
# shard routers: the sharded demo's --router axis
@pytest.mark.parametrize("name", ROUTER_NAMES)
def test_every_router_name_round_trips(name):
    """Each router name must parse as ``--router``, construct through
    the registry, and survive pickling (routers ride inside the
    sharded engine, which the spec path may itself pickle)."""
    from repro.cli import _build_parser
    from repro.engine.sharding import make_router

    args = _build_parser().parse_args(["run", "sharded", "--router", name])
    assert args.router == name
    router = make_router(name, 3)
    restored = pickle.loads(pickle.dumps(router))
    assert [restored.route(f"t{i}") for i in range(20)] == [
        router.route(f"t{i}") for i in range(20)
    ]


@pytest.mark.parametrize("name", ROUTER_NAMES)
def test_every_router_name_is_documented(name):
    """doc-sync: the API reference must list every router strategy."""
    api = (Path(__file__).resolve().parents[1] / "docs" / "api.md").read_text()
    assert f"`{name}`" in api, f"{name} missing from docs/api.md"


def test_run_rejects_unknown_router():
    with pytest.raises(SystemExit):
        main(["run", "sharded", "--router", "nonesuch", "--no-save"])


def test_run_sharded_demo(capsys):
    pytest.importorskip("numpy")
    assert main(["run", "sharded", "--quick", "--no-save"]) == 0
    out = capsys.readouterr().out
    assert "Sharded topology" in out
    assert "merged answers identical to a single-engine run: True" in out


# ----------------------------------------------------------------------
# repro bench: the persistent experiment matrix
def _seed_bench_history(db, values, *, metric="latency_mean_seconds"):
    """Fill the tiny grid once per historical value at synthetic SHAs."""
    from repro.bench.matrix import TINY_GRID, fill
    from repro.bench.store import ResultsStore, environment_fingerprint

    env = environment_fingerprint()
    with ResultsStore(db) as store:
        for i, value in enumerate(values):
            fill(
                store, TINY_GRID, git_sha=f"hist-{i}", env=env,
                runner=lambda c, g, v=value: ({metric: v}, {}),
            )


def test_bench_fill_is_resumable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "feedbead")
    db = str(tmp_path / "r.db")
    assert main(["bench", "fill", "--grid", "tiny", "--db", db]) == 0
    first = capsys.readouterr().out
    assert "1 cell(s) executed, 0 already complete" in first
    # the acceptance criterion: the second run executes nothing
    assert main(["bench", "fill", "--grid", "tiny", "--db", db]) == 0
    second = capsys.readouterr().out
    assert "0 cell(s) executed, 1 already complete" in second


def test_bench_fill_force_reruns(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "feedbead")
    db = str(tmp_path / "r.db")
    assert main(["bench", "fill", "--grid", "tiny", "--db", db]) == 0
    capsys.readouterr()
    assert main(["bench", "fill", "--grid", "tiny", "--db", db, "--force"]) == 0
    assert "1 cell(s) executed" in capsys.readouterr().out


def test_bench_fill_rejects_unknown_grid(tmp_path):
    with pytest.raises(SystemExit):
        main(["bench", "fill", "--grid", "nonesuch"])


def test_bench_report_text_and_markdown(tmp_path, capsys):
    db = str(tmp_path / "r.db")
    _seed_bench_history(db, [1.0, 1.1, 1.2])
    assert main(["bench", "report", "--db", db]) == 0
    out = capsys.readouterr().out
    assert "latency_mean_seconds" in out
    assert "Trend" in out
    assert main(["bench", "report", "--db", db, "--markdown"]) == 0
    md = capsys.readouterr().out
    assert "| Cell |" in md
    # metric filtering drops everything but the named series
    assert main(
        ["bench", "report", "--db", db, "--metric", "no_such_metric"]
    ) == 0
    assert "latency_mean_seconds" not in capsys.readouterr().out


def test_bench_regress_green_store_exits_zero(tmp_path, capsys, monkeypatch):
    from repro.bench.matrix import TINY_GRID, fill
    from repro.bench.store import ResultsStore, environment_fingerprint

    db = str(tmp_path / "r.db")
    _seed_bench_history(db, [1.0, 1.01, 0.99, 1.0])
    monkeypatch.setenv("REPRO_GIT_SHA", "headsha")
    with ResultsStore(db) as store:
        fill(
            store, TINY_GRID, git_sha="headsha",
            env=environment_fingerprint(),
            runner=lambda c, g: ({"latency_mean_seconds": 1.0}, {}),
        )
    assert main(["bench", "regress", "--db", db]) == 0
    assert "no departures" in capsys.readouterr().out


def test_bench_regress_flags_slowdown_and_escape_hatch(
    tmp_path, capsys, monkeypatch
):
    from repro.bench.matrix import TINY_GRID, fill
    from repro.bench.store import ResultsStore, environment_fingerprint

    db = str(tmp_path / "r.db")
    _seed_bench_history(db, [1.0, 1.01, 0.99, 1.0])
    monkeypatch.setenv("REPRO_GIT_SHA", "headsha")
    with ResultsStore(db) as store:
        fill(
            store, TINY_GRID, git_sha="headsha",
            env=environment_fingerprint(),
            runner=lambda c, g: ({"latency_mean_seconds": 5.0}, {}),
        )
    assert main(["bench", "regress", "--db", db]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out
    # the documented escape hatch reports but exits 0
    assert main(["bench", "regress", "--db", db, "--allow-regression"]) == 0
    assert "allowed by --allow-regression" in capsys.readouterr().out


def test_bench_ingest_backfills_artifacts(tmp_path, capsys, monkeypatch):
    import json

    art = tmp_path / "BENCH_sample.json"
    art.write_text(json.dumps([{"Technique": "prompt", "Latency": 0.25}]))
    db = str(tmp_path / "r.db")
    assert main(["bench", "ingest", str(art), "--db", db]) == 0
    out = capsys.readouterr().out
    assert "1 cell(s)" in out

    from repro.bench.store import ResultsStore

    with ResultsStore(db) as store:
        assert store.cell_count() == 1
        assert store.cells()[0]["source"] == "artifact:BENCH_sample"


def test_bench_ingest_relocate_moves_artifact(tmp_path, capsys, monkeypatch):
    import json

    import repro.bench.reporting as reporting
    import repro.cli as cli

    canonical = tmp_path / "results"
    canonical.mkdir()
    monkeypatch.setattr(reporting, "results_dir", lambda: canonical)
    monkeypatch.setattr(cli, "results_dir", lambda: canonical)
    stray = tmp_path / "BENCH_stray.json"
    stray.write_text(json.dumps([{"V": 1.0}]))
    db = str(tmp_path / "r.db")
    assert main(["bench", "ingest", str(stray), "--db", db, "--relocate"]) == 0
    assert not stray.exists()
    assert (canonical / "BENCH_stray.json").exists()
