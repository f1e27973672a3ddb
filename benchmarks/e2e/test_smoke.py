"""Smoke test of the end-to-end benchmark (run explicitly:
``PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py``; tier-1 collects
``tests/`` only).

Runs the one command at 2 % scale on all four workloads, untraced and
traced, and holds the printed names to ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_small_scale_run_prints_every_metric_and_passes_its_gate(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--scale", "0.02",
            "--seconds", "1",
            "--out", str(out),
        ],  # fmt: skip
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 60, f"smoke run took {elapsed:.1f}s"

    workloads = {w["name"] for w in SPEC["workloads"]}
    printed: dict[str, set[str]] = {}
    for line in done.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] in workloads and "=" not in fields[1]:
            float(fields[2])
            printed.setdefault(fields[0], set()).add(fields[1])
    expected = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(printed) == workloads
    for name, metrics in printed.items():
        assert metrics == expected, (name, metrics ^ expected)
    for name in workloads | expected:
        assert NAME.fullmatch(name), name

    assert "ops_failed=0" in done.stdout.splitlines()[-1]
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == workloads
    assert {"git_sha", "nproc", "python", "numpy", "numba", "effective_cores"} <= set(
        report["host"]
    )
    for entry in report["workloads"].values():
        assert entry["ops_failed"] == 0 and entry["ops_attempted"] > 0
        assert re.fullmatch(r"[0-9a-f]{64}", entry["answers_sha256"])
