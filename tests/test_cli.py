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
    assert main(["run", "sharded", "--quick", "--no-save"]) == 0
    out = capsys.readouterr().out
    assert "Sharded topology" in out
    assert "merged answers identical to a single-engine run: True" in out


def test_bench_subcommand_is_gone(capsys):
    """The experiment-matrix commands were retired with the store
    (EXPERIMENTS.md "Retired paths"); argparse rejects them."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "fill"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
