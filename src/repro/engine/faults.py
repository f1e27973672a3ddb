"""Failure injection and exactly-once recovery.

Section 8: "Exactly-once semantics is guaranteed by initially
replicating the input batch. ... In case of losing a batch's state due
to hardware failure, this state is recomputed using the replicated
batched data."  Two granularities of failure are modelled:

- **Batch-state loss** (:class:`FailureInjector`): a batch's output
  vanishes after it was computed; recovery recomputes it from the
  replicated input and must be byte-identical to the lost original —
  the exactly-once property the tests assert.
- **Task-attempt faults** (:class:`TaskFaultInjector`): an individual
  Map/Reduce task *attempt* crashes or kills its worker process
  mid-batch.  The parallel execution backend
  (:mod:`repro.engine.executors`) re-executes the task from its
  replicated input — the pickled payload it already holds — under the
  exact same :func:`~repro.engine.tasks.derive_task_seed` seed, so a
  retried task is indistinguishable from a first-try success and runs
  with injected task faults stay bit-identical to clean serial runs.

Task faults are keyed on ``(batch_index, kind, task_id)`` and gated on
the *attempt* number, which makes every injected failure deterministic:
attempt 0 of a task configured with ``crashes=1`` always raises,
attempt 1 always succeeds, in any process and on any backend schedule.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Optional

from ..core.tuples import Key
from ..queries.base import Query
from .state import StateStore

__all__ = [
    "FailureInjector",
    "RecoveryEvent",
    "recover_batch",
    "TransientTaskError",
    "InjectedTaskFault",
    "TaskFault",
    "TaskFaultInjector",
    "TASK_KINDS",
]

#: the two task kinds the execution layer dispatches
TASK_KINDS: tuple[str, ...] = ("map", "reduce")

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class RecoveryEvent:
    """Record of one state loss and its recomputation."""

    batch_index: int
    recovered_keys: int
    matched_original: bool


def recover_batch(
    store: StateStore, index: int, query: Query
) -> Mapping[Key, Any]:
    """Recompute a lost batch state from its replicated input, folded
    block by block as the engine did, so float sums come back bit-equal
    to the lost original, split keys included."""
    state = store.get(index)
    if not state.recoverable:
        raise RuntimeError(
            f"batch {index} has no replicated input; state is unrecoverable"
        )
    output = query.reference_output(state.replicated_input, state.block_ends)
    store.restore(index, output)
    log.info("recovered batch %d state from replicated input (%d keys)",
             index, len(output))
    return output


class FailureInjector:
    """Deterministically fails the states of the configured batches."""

    def __init__(self, fail_batches: Iterable[int] = ()) -> None:
        self.fail_batches = frozenset(fail_batches)
        self.events: list[RecoveryEvent] = []

    def should_fail(self, index: int) -> bool:
        return index in self.fail_batches

    def fail_and_recover(
        self, store: StateStore, index: int, query: Query
    ) -> RecoveryEvent:
        """Drop batch ``index``'s output, recompute it, verify equality."""
        original = dict(store.get(index).output)
        store.drop_output(index)
        recovered = recover_batch(store, index, query)
        event = RecoveryEvent(
            batch_index=index,
            recovered_keys=len(recovered),
            matched_original=dict(recovered) == original,
        )
        if not event.matched_original:
            log.error(
                "recovered state for batch %d does not match the lost "
                "original — exactly-once violated", index,
            )
        self.events.append(event)
        return event


# ----------------------------------------------------------------------
# task-level fault injection (parallel backend)
# ----------------------------------------------------------------------
class TransientTaskError(RuntimeError):
    """A task failure the execution backend may safely retry.

    Raise this (or a subclass) from task code to signal a transient
    condition — the parallel backend re-executes the attempt from its
    replicated payload instead of propagating.  Non-transient exceptions
    (application bugs) always propagate unchanged.
    """


class InjectedTaskFault(TransientTaskError):
    """The synthetic crash a :class:`TaskFault` raises in a worker."""


@dataclass(frozen=True, slots=True)
class TaskFault:
    """Deterministic fault plan for one ``(batch, kind, task)`` coordinate.

    Each field gates on the attempt number, so the plan is a pure
    function of ``attempt`` — no cross-process state needed:

    - ``crashes``: attempts ``0..crashes-1`` raise :class:`InjectedTaskFault`.
    - ``poisons``: attempts ``0..poisons-1`` kill the whole worker
      process (``os._exit``), breaking the pool — the way to exercise
      pool resurrection without real hardware failures.

    Poison is checked first: a killed worker never gets to raise.
    """

    crashes: int = 0
    poisons: int = 0

    def __post_init__(self) -> None:
        if self.crashes < 0 or self.poisons < 0:
            raise ValueError("fault attempt counts must be >= 0")

    def apply(self, attempt: int) -> None:
        """Inflict this fault on attempt ``attempt`` (runs in the worker)."""
        if attempt < self.poisons:
            os._exit(86)  # hard kill: no atexit, no cleanup — a real crash
        if attempt < self.crashes:
            raise InjectedTaskFault(
                f"injected fault: attempt {attempt} of {self.crashes} doomed"
            )


class TaskFaultInjector:
    """Deterministically faults chosen task attempts of a parallel run.

    Faults are registered per ``(batch_index, kind, task_id)`` and
    shipped *inside* the task payload, so they fire in the worker
    process that actually runs the attempt — under any start method and
    any scheduling order.  The injector object itself stays on the
    driver; only the small frozen :class:`TaskFault` records travel.
    """

    def __init__(self, *, shard: Optional[int] = None) -> None:
        self._faults: dict[tuple[int, str, int], TaskFault] = {}
        #: shard-scoped profile: ``None`` applies everywhere, an int
        #: confines the whole fault table to that shard of a sharded run
        #: (single-engine runs ignore the scope entirely)
        self.shard = shard

    def __len__(self) -> int:
        return len(self._faults)

    def for_shard(self, shard: int) -> "TaskFaultInjector":
        """Scope this injector's faults to one shard of a sharded run."""
        if shard < 0:
            raise ValueError(f"shard must be >= 0, got {shard}")
        self.shard = shard
        return self

    def applies_to_shard(self, shard: int) -> bool:
        """Whether this injector's fault table is live on ``shard``."""
        return self.shard is None or self.shard == shard

    @staticmethod
    def _check(kind: str, times: int) -> None:
        if kind not in TASK_KINDS:
            raise ValueError(f"kind must be one of {TASK_KINDS}, got {kind!r}")
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")

    def _merge(self, key: tuple[int, str, int], **changes: Any) -> None:
        self._faults[key] = replace(self._faults.get(key, TaskFault()), **changes)
        log.debug("registered task fault %s: %s", key, self._faults[key])

    def crash(
        self, batch_index: int, kind: str, task_id: int, *, times: int = 1
    ) -> "TaskFaultInjector":
        """Make the first ``times`` attempts raise :class:`InjectedTaskFault`."""
        self._check(kind, times)
        self._merge((batch_index, kind, task_id), crashes=times)
        return self

    def poison(
        self, batch_index: int, kind: str, task_id: int, *, times: int = 1
    ) -> "TaskFaultInjector":
        """Make the first ``times`` attempts kill their worker process."""
        self._check(kind, times)
        self._merge((batch_index, kind, task_id), poisons=times)
        return self

    def fault_for(
        self, batch_index: int, kind: str, task_id: int
    ) -> Optional[TaskFault]:
        """The fault plan for one coordinate, or ``None``."""
        return self._faults.get((batch_index, kind, task_id))

    def snapshot(self) -> dict[tuple[int, str, int], TaskFault]:
        """A copy of the full fault table, keyed by coordinate.

        The worker-resident :class:`~repro.engine.executors.RunContext`
        broadcasts this once per pool generation so workers can look up
        their own faults instead of receiving them per payload; it is a
        copy, so later ``crash``/``poison`` registrations
        cannot mutate an already-installed generation behind its back.
        """
        return dict(self._faults)
