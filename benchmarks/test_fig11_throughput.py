"""Figure 11: maximum sustainable throughput before back-pressure.

(a-c) sinusoidal input rate at batch intervals 1/2/3 s; (d) constant
rate across Zipf exponents at interval 3 s.  Paper shapes: every
technique gains with longer intervals; time-based is worst under the
variable rate; Prompt sustains the highest rate everywhere, with the
margin over hashing growing sharply with skew.
"""

from __future__ import annotations

from repro.bench import (
    PAPER_TECHNIQUES,
    fig11_throughput_vs_interval,
    fig11d_skew_sweep,
    format_table,
)

# Costs scaled x2: stability boundaries land near 10k tuples/s, keeping
# each probe cheap while preserving every relative ordering.
COST_SCALE = 2.0


def test_fig11abc_throughput_vs_interval(record_experiment):
    rows = fig11_throughput_vs_interval(
        intervals=(1.0, 2.0, 3.0),
        num_batches=3,
        num_keys=10_000,
        tolerance=0.12,
        initial_rate=6_000.0,
        cost_scale=COST_SCALE,
    )
    record_experiment(
        "fig11abc_throughput",
        format_table(
            rows,
            columns=["BatchInterval", "Technique", "MaxThroughput", "Probes"],
            title="Figure 11a-c: max throughput (sinusoidal rate, SynD z=1.4)",
        ),
        rows,
    )

    def rate(interval, tech):
        return next(
            r["MaxThroughput"]
            for r in rows
            if r["BatchInterval"] == interval and r["Technique"] == tech
        )

    for interval in (1.0, 2.0, 3.0):
        rates = {t: rate(interval, t) for t in PAPER_TECHNIQUES}
        # Prompt wins (or ties within search tolerance).
        assert rates["prompt"] >= 0.95 * max(rates.values())
        # Hashing suffers under this skew.
        assert rates["prompt"] > 1.2 * rates["hash"]
    # Longer intervals amortize fixed costs: prompt@3s > prompt@1s.
    assert rate(3.0, "prompt") >= rate(1.0, "prompt")


def test_fig11d_throughput_vs_skew(record_experiment):
    rows = fig11d_skew_sweep(
        exponents=(0.2, 0.6, 1.0, 1.4, 1.8, 2.0),
        batch_interval=3.0,
        num_batches=3,
        num_keys=10_000,
        tolerance=0.12,
        initial_rate=6_000.0,
        cost_scale=COST_SCALE,
    )
    record_experiment(
        "fig11d_skew",
        format_table(
            rows,
            columns=["Zipf_z", "Technique", "MaxThroughput", "Probes"],
            title="Figure 11d: max throughput vs Zipf exponent (interval 3 s)",
        ),
        rows,
    )

    def rate(z, tech):
        return next(
            r["MaxThroughput"]
            for r in rows
            if r["Zipf_z"] == z and r["Technique"] == tech
        )

    # Prompt holds the top spot at every exponent.
    for z in (0.2, 0.6, 1.0, 1.4, 1.8, 2.0):
        rates = {t: rate(z, t) for t in PAPER_TECHNIQUES}
        assert rates["prompt"] >= 0.93 * max(rates.values()), f"z={z}"
    # The margin over hashing explodes with skew (paper: 2x-5x).
    assert rate(1.8, "prompt") > 2.0 * rate(1.8, "hash")
    # Under strong skew prompt also stays ahead of the shuffle family
    # (within the search's ~12% resolution).
    assert rate(1.8, "prompt") >= rate(1.8, "shuffle")
    assert rate(1.8, "prompt") >= 1.2 * rate(1.8, "pk5")
