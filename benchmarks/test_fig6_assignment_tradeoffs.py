"""Figure 6: B-BPFI assignment trade-offs on the Figure 5 batch.

FFD fills bins nearly completely (over-fragmenting, cardinality blind);
FragMin fragments minimally but concentrates large keys; Algorithm 2
balances all three objectives.
"""

from __future__ import annotations

from repro.bench import fig6_assignment_tradeoffs, format_table


def test_fig6_assignment_tradeoffs(record_experiment):
    rows = fig6_assignment_tradeoffs()
    record_experiment(
        "fig6_assignment_tradeoffs",
        format_table(rows, title="Figure 6: assignment trade-offs (385 tuples, 8 keys, 4 blocks)"),
        rows,
    )
    by_name = {r["Strategy"]: r for r in rows}
    prompt = by_name["Prompt (Algorithm 2)"]
    # Prompt fragments no more keys than FFD and balances cardinality best.
    assert prompt["FragmentedKeys"] <= by_name["FirstFitDecreasing"]["FragmentedKeys"]
    spread = lambda r: max(r["BinCardinalities"]) - min(r["BinCardinalities"])
    assert spread(prompt) <= min(
        spread(by_name["FirstFitDecreasing"]),
        spread(by_name["FragmentationMinimization"]),
    )
