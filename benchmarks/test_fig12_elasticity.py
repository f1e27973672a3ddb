"""Figure 12: elastic task scaling under a growing / shrinking workload.

Back-pressure is disabled; the threshold controller (Algorithm 4) is
the only defence.  Paper shape: the engine adds tasks within a few
batches of the load crossing the threshold and removes them lazily when
the load subsides, keeping W inside the stability band.
"""

from __future__ import annotations

import pytest

from repro.bench import fig12_elasticity, format_table


@pytest.mark.parametrize("direction", ["out", "in"])
def test_fig12_elasticity(record_experiment, direction):
    result = fig12_elasticity(direction=direction, num_batches=40)
    series = result["series"]
    record_experiment(
        f"fig12_scale_{direction}",
        format_table(
            series,
            title=f"Figure 12 (scale-{direction}): offered load vs task counts",
        ),
        result,
    )
    first, last = series[0], series[-1]
    if direction == "out":
        assert last["MapTasks"] > first["MapTasks"]
        assert last["ReduceTasks"] >= first["ReduceTasks"]
    else:
        assert last["MapTasks"] < first["MapTasks"]
    # The controller kept the system from runaway overload at the end:
    # the final plateau is processed inside ~the stability band.
    assert series[-1]["Load_W"] <= 1.1
    assert result["actions"], "the controller should have acted at least once"
