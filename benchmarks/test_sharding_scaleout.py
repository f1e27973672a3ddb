"""Sharded topology scale-out: weak scaling over the shard axis.

Offers N shards an aggregate rate ∝ N and requires flat per-shard load
with ~linear aggregate throughput — the scale-out claim of the sharded
topology, measured on the engine's simulated clock.  The bench refuses
to time anything until a fixed-rate 1-vs-2-shard replay proves the
topology answer-preserving (byte-identical merged windows), so these
rows can never drift away from the differential suite's contract.
"""

from __future__ import annotations

import numpy as np

from repro.bench import format_table
from repro.bench.sharding import (
    DEFAULT_SHARD_COUNTS,
    bench_sharding_scaleout,
    scaleout_gate,
)


def test_sharding_scaleout(record_experiment):
    rows = bench_sharding_scaleout()
    gate = scaleout_gate(rows)
    payload = {"rows": rows, "gate": gate}
    record_experiment(
        "BENCH_sharding_scaleout",
        format_table(
            rows,
            columns=[
                "Shards",
                "Router",
                "OfferedRate",
                "TotalTuples",
                "AggThroughput",
                "MeanShardLoad",
                "MaxShardShare",
                "Stable",
            ],
            title="Sharded scale-out: aggregate rate ∝ N, per-shard load flat",
        )
        + "\n\n"
        + format_table(
            [gate],
            title="Gate: stable, answers identical, >=0.8·N throughput",
        ),
        payload,
    )

    # Coverage: the whole default shard axis ran, identity-checked.
    assert [r["Shards"] for r in rows] == list(DEFAULT_SHARD_COUNTS)
    assert all(r["AnswersIdentical"] for r in rows)

    assert gate["GatePassed"], gate
