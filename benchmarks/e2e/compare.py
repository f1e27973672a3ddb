"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

A is the base, B the candidate.  For every workload and end-to-end
metric it prints both values and the ratio B/A, and classifies the pair
with the bounds ``BENCHMARK.json`` fixes:

- ``ok`` — B is not worse than A by more than the bound;
- ``regression`` — it is, and both files' own repeats agree with
  themselves to within the bound;
- ``unresolved`` — it is, but the quartile spread of the repeats inside
  A or B is itself wider than the bound, so the runs cannot tell.

When both files were measured on the same seed and scale, the window
answers must hash the same and ``model_load_mean`` — the simulated
clock, a pure function of the input — must repeat to 1e-12.  Exits
non-zero on a regression or on differing answers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: bound used instead of the file's when the inputs were identical
SAME_INPUT_BOUNDS = {"model_load_mean": 1e-12}


def worse_by(base: float, candidate: float, better: str) -> float:
    """Share of ``base`` by which ``candidate`` is worse (negative: better)."""
    delta = base - candidate if better == "higher" else candidate - base
    return delta / abs(base)


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> int:
    same_input = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
    status = 0
    print(
        f"base A: {a['host']['git_sha'][:12]} seed {a['seed']}   "
        f"candidate B: {b['host']['git_sha'][:12]} seed {b['seed']}"
    )
    print(
        f"{'workload':18} {'metric':20} {'A':>14} {'B':>14} "
        f"{'B/A':>8} {'bound':>8}  verdict"
    )
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            key, better = metric["name"], metric["better"]
            bound = metric["bound"]
            if same_input:
                bound = SAME_INPUT_BOUNDS.get(key, bound)
            va = wa["end_to_end"][key]["value"]
            vb = wb["end_to_end"][key]["value"]
            verdict = "ok"
            if worse_by(va, vb, better) > bound:
                noisy = max(wa["spread"].get(key, 0.0), wb["spread"].get(key, 0.0))
                verdict = "unresolved" if noisy > bound else "regression"
            if verdict == "regression":
                status = 1
            print(
                f"{name:18} {key:20} {va:14.4f} {vb:14.4f} "
                f"{vb / va:8.4f} {bound:8.2g}  {verdict}"
            )
        if same_input and wa["answers_sha256"] != wb["answers_sha256"]:
            print(f"{name:18} answers_sha256 differs on identical input")
            status = 1
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    return compare(a, b, json.loads(SPEC.read_text()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
