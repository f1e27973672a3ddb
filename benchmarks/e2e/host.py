"""Where a result was measured: the host block and its probes."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

__all__ = ["REPO_ROOT", "SRC_DIR", "effective_cores", "host_block", "import_seconds"]

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"

_BURN_ITERATIONS = 3_000_000


def _burn(iterations: int) -> float:
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return time.perf_counter() - started


def effective_cores() -> float:
    """Speed-up of two burning processes over one: ~1 on a shared core.

    The same pure-Python loop runs once alone and then twice side by
    side; two real cores finish the pair in the time of one (2.0), one
    shared core takes twice as long (1.0).
    """
    with ProcessPoolExecutor(max_workers=2) as pool:
        pool.submit(_burn, 1000).result()  # start the workers first
        alone = pool.submit(_burn, _BURN_ITERATIONS).result()
        started = time.perf_counter()
        pair = [pool.submit(_burn, _BURN_ITERATIONS) for _ in range(2)]
        for future in pair:
            future.result()
        together = time.perf_counter() - started
    return 2 * alone / together


def import_seconds() -> float:
    """``import repro`` timed inside a fresh interpreter."""
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import time; t = time.perf_counter(); import repro; "
            "print(time.perf_counter() - t)",
        ],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True,
        text=True,
        check=True,
    )
    return float(out.stdout.strip())


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def host_block() -> dict[str, object]:
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "effective_cores": effective_cores(),
    }
