"""Figure 10: BSI (relative to hashing) and BCI (relative to shuffle).

Paper shapes: shuffle/time/Prompt near 0 on relative BSI; hashing and
Prompt lowest on BCI while PK2/PK5/cAM sit several times above shuffle;
Prompt balances both at once.
"""

from __future__ import annotations

import pytest

from repro.bench import fig10_partition_metrics, format_table


# tweets/tpch are the figure's datasets; gcm/debs regenerate the results
# the paper reports as "similar ... but omitted due to space limitation".
@pytest.mark.parametrize("dataset", ["tweets", "tpch", "gcm", "debs"])
def test_fig10_partition_metrics(record_experiment, dataset):
    rows = fig10_partition_metrics(
        dataset, num_blocks=16, rate=20_000.0, interval=1.0
    )
    record_experiment(
        f"fig10_{dataset}",
        format_table(
            rows,
            columns=["Technique", "BSI", "BSI_rel_hash", "BCI", "BCI_rel_shuffle", "KSR", "MPI"],
            title=f"Figure 10 ({dataset}): partitioning metrics, 16 blocks",
        ),
        rows,
    )
    by_name = {r["Technique"]: r for r in rows}
    # Size balance: prompt ~ shuffle ~ time, far below hashing.
    for name in ("prompt", "shuffle"):
        assert by_name[name]["BSI_rel_hash"] <= 0.25
    # Key locality: prompt near hashing's ideal 1.0, far below shuffle.
    assert by_name["prompt"]["KSR"] <= 1.25
    assert by_name["shuffle"]["KSR"] > by_name["prompt"]["KSR"]
    # Overall: prompt has the best (or tied-best) MPI.
    best = min(r["MPI"] for r in rows)
    assert by_name["prompt"]["MPI"] <= best * 1.05 + 1e-9
