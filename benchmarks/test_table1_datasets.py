"""Table 1: dataset properties (paper values vs. scaled generators)."""

from __future__ import annotations

from repro.bench import format_table, table1_dataset_stats


def test_table1_dataset_stats(record_experiment):
    rows = table1_dataset_stats(rate=10_000.0, sample_seconds=2.0)
    record_experiment(
        "table1_datasets",
        format_table(rows, title="Table 1: Datasets (paper vs scaled stand-ins)"),
        rows,
    )
    assert [r["Name"] for r in rows] == ["Tweets", "SynD", "DEBS", "GCM", "TPC-H"]
    for row in rows:
        assert row["SampledTuples"] == 20_000
