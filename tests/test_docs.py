"""Documentation stays in sync with the code it describes."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS
from repro.partitioners import PARTITIONER_NAMES

ROOT = Path(__file__).resolve().parents[1]


def _read(name: str) -> str:
    path = ROOT / name
    assert path.exists(), f"{name} is missing"
    return path.read_text()


def test_required_documents_exist():
    for name in (
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "LICENSE",
        "docs/algorithms.md",
        "docs/architecture.md",
        "docs/api.md",
        "docs/observability.md",
        "docs/reproduction-notes.md",
    ):
        assert (ROOT / name).exists(), name


def test_observability_doc_covers_the_metric_catalog():
    """Every metric the engine publishes is documented by name."""
    doc = _read("docs/observability.md")
    src = ROOT / "src" / "repro"
    published = set()
    for path in src.rglob("*.py"):
        published.update(re.findall(r'"(prompt_[a-z_]+)"', path.read_text()))
    assert published, "no published metric names found in src/"
    for name in sorted(published):
        assert f"`{name}`" in doc, f"{name} missing from docs/observability.md"


def test_single_execution_path_is_documented_everywhere():
    """The one-path surface stays in sync across the docs, and the
    retired knobs do not creep back in as live options."""
    arch = _read("docs/architecture.md")
    assert "**One way to run a batch.**" in arch
    assert "**Pickle at launch.**" in arch
    assert "## Streaming dispatch" not in arch
    assert "resident_context=False" not in arch
    api = _read("docs/api.md")
    assert "`streaming_dispatch`" not in api
    assert "--streaming-dispatch" not in api
    assert "resident_context=" not in api
    obs = _read("docs/observability.md")
    assert "execute (batch, backend)" in obs
    for retired in (
        "`plan_emit`",
        "`map_dispatch`",
        "`prompt_plan_dispatch_overlap_seconds`",
    ):
        assert retired in obs, f"{retired} removal note missing"
    assert "## Retired paths" in _read("EXPERIMENTS.md")


def test_observability_doc_is_cross_linked():
    assert "observability.md" in _read("docs/architecture.md")
    assert "observability.md" in _read("docs/api.md")


def test_readme_lists_every_example():
    readme = _read("README.md")
    for script in sorted((ROOT / "examples").glob("*.py")):
        assert f"examples/{script.name}" in readme, script.name


def test_examples_exist_and_have_mains():
    scripts = list((ROOT / "examples").glob("*.py"))
    assert len(scripts) >= 3
    for script in scripts:
        text = script.read_text()
        assert 'if __name__ == "__main__":' in text, script.name
        assert text.startswith("#!/usr/bin/env python3"), script.name


def test_api_doc_mentions_every_registry_name():
    api = _read("docs/api.md")
    for name in PARTITIONER_NAMES:
        assert f"`{name}`" in api, name


def test_experiments_md_references_real_benches():
    experiments = _read("EXPERIMENTS.md")
    for match in re.finditer(r"benchmarks/(test_\w+\.py)", experiments):
        assert (ROOT / "benchmarks" / match.group(1)).exists(), match.group(0)


def test_design_md_modules_exist():
    design = _read("DESIGN.md")
    for match in re.finditer(r"`repro\.([a-z_.]+)`", design):
        dotted = match.group(1)
        rel = ROOT / "src" / "repro" / Path(*dotted.split("."))
        assert (
            rel.with_suffix(".py").exists()
            or (rel / "__init__.py").exists()
            or (ROOT / "src" / "repro" / (dotted.split(".")[0] + ".py")).exists()
        ), f"repro.{dotted} referenced in DESIGN.md but not found"


def test_cli_experiments_cover_every_paper_artifact():
    # every table/figure in the paper's evaluation has a CLI entry
    for artifact in ("table1", "fig6", "fig10", "fig11", "fig11d",
                     "fig12", "fig13", "fig14a", "fig14b"):
        assert artifact in EXPERIMENTS


def test_each_paper_figure_has_a_bench_file():
    benches = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
    for required in (
        "test_table1_datasets.py",
        "test_fig6_assignment_tradeoffs.py",
        "test_fig10_partitioning_metrics.py",
        "test_fig11_throughput.py",
        "test_fig12_elasticity.py",
        "test_fig13_latency_distribution.py",
        "test_fig14_overhead.py",
        "test_ablations.py",
        "test_ext_batch_sizing.py",
    ):
        assert required in benches, required
