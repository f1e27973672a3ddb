"""The correctness gate: a plain-dict reference and the answer checks.

Nothing here calls repo code.  The reference folds the slices the
source actually handed out (one per batch, in pull order), applies the
lateness contract itself where the workload has one, and recomputes
every window answer from scratch — no incremental retraction — so it
shares no algorithm with the engine's ``WindowedAggregator``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from source import MaterialisedSource, Pull
from workloads import BATCH_INTERVAL, Workload

__all__ = ["Checker", "Reference", "answers_sha256"]

REL_TOL = 1e-9
ABS_TOL = 1e-6


@dataclass(frozen=True)
class Reference:
    #: the window answer expected after each batch
    answers: list[dict[Any, Any]]
    #: tuples the lateness contract drops (0 without a contract)
    overdue: int


def build_reference(
    workload: Workload, source: MaterialisedSource, pulls: Sequence[Pull]
) -> Reference:
    value_of = workload.reference_value
    per_batch: list[dict[Any, Any]] = []
    overdue = 0
    for k, pull in enumerate(pulls):
        horizon = (
            -math.inf
            if workload.max_delay is None
            else k * BATCH_INTERVAL - workload.max_delay
        )
        sums: dict[Any, Any] = {}
        for t in source.tuples[pull.lo : pull.hi]:
            if t.ts < horizon:
                overdue += 1
                continue
            sums[t.key] = sums.get(t.key, 0) + value_of(t.value)
        per_batch.append(sums)
    answers = []
    for k in range(len(per_batch)):
        answer: dict[Any, Any] = {}
        for sums in per_batch[max(0, k - workload.reference_window + 1) : k + 1]:
            for key, value in sums.items():
                answer[key] = answer.get(key, 0) + value
        answers.append(answer)
    return Reference(answers, overdue)


def _same(got: Mapping[Any, Any], want: Mapping[Any, Any], exact: bool) -> bool:
    if got == want:
        return True
    if exact:
        return False
    # Float sums: the engine adds per block and retracts incrementally,
    # so it may differ in the last digits and may keep a key whose
    # window contributions cancelled to ~1e-13; absent means zero.
    return all(
        math.isclose(
            got.get(key, 0.0), want.get(key, 0.0), rel_tol=REL_TOL, abs_tol=ABS_TOL
        )
        for key in got.keys() | want.keys()
    )


def answers_sha256(answers: Sequence[Mapping[Any, Any]], exact: bool) -> str:
    """Digest of a run's window answers, stable under float reordering.

    Floats are written to 4 decimals (the inputs are cents, the allowed
    noise is 1e-6) and entries that round to zero are skipped, so two
    correct runs that sum in different orders hash the same.
    """
    digest = hashlib.sha256()
    for k, answer in enumerate(answers):
        digest.update(f"#{k}\n".encode())
        for key in sorted(answer):
            text = str(answer[key]) if exact else f"{answer[key]:.4f}"
            if text.strip("-0.") == "":
                continue
            digest.update(f"{key}={text}\n".encode())
    return digest.hexdigest()


class Checker:
    """Counts attempted and failed operations across every run checked.

    An operation is one window answer.  A repeat whose tuples are not
    conserved (handed out = processed + overdue) adds one failure.
    """

    def __init__(self, workload: Workload, source: MaterialisedSource) -> None:
        self.workload = workload
        self.source = source
        self.attempted = 0
        self.failed = 0
        self.reference_s = 0.0
        self.sha256: str | None = None
        self._bounds: tuple[tuple[int, int], ...] | None = None
        self._reference: Reference | None = None

    def reference_for(self, pulls: Sequence[Pull]) -> Reference:
        bounds = tuple((p.lo, p.hi) for p in pulls)
        if self._reference is None or bounds != self._bounds:
            started = time.perf_counter()
            self._reference = build_reference(self.workload, self.source, pulls)
            self._bounds = bounds
            self.reference_s = time.perf_counter() - started
        return self._reference

    def check(
        self,
        pulls: Sequence[Pull],
        answers: Sequence[Mapping[Any, Any]],
        processed: int,
        overdue: int,
    ) -> None:
        """Check one run's answers and tuple conservation."""
        reference = self.reference_for(pulls)
        exact = self.workload.exact_answers
        expected = reference.answers
        self.attempted += len(expected)
        self.failed += abs(len(expected) - len(answers))
        self.failed += sum(
            not _same(got, want, exact) for got, want in zip(answers, expected)
        )
        handed_out = sum(p.count for p in pulls)
        if handed_out != processed + overdue or overdue != reference.overdue:
            self.failed += 1
        if self.sha256 is None:
            self.sha256 = answers_sha256(answers, exact)
