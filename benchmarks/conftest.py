"""Shared benchmark plumbing.

Every bench regenerates one table or figure from the paper's Section 7,
prints the rows (run pytest with ``-s`` to see them inline) and
persists JSON to ``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import save_results


@pytest.fixture
def record_experiment(capsys):
    """Return a helper that prints a table and persists its JSON."""

    def _record(name: str, table_text: str, payload) -> None:
        with capsys.disabled():
            print(f"\n{table_text}\n")
        save_results(name, payload)

    return _record
