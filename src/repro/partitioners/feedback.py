"""Worker-load feedback: completed batches inform future partitioning.

Adaptive techniques from the related work (D-Choices/W-Choices key
splitting, Fang et al.'s variance-driven repartitioning) steer on the
load their assignments *actually produced*, not just on the running
block sizes inside the current batch.  The engine therefore publishes a
:class:`WorkerLoadFeedback` after every completed batch — per-block Map
load and per-bucket Reduce load, straight from the executed
:class:`~repro.engine.tasks.BatchExecution` — and delivers it to the
partitioner before a later batch is partitioned.

**Determinism contract.**  Load reports reach the partitioner two
heartbeats late, and that lag is fixed so results are reproducible: the
:class:`FeedbackBuffer` holds published feedback and releases it with a
lag of :data:`FEEDBACK_LAG` batches, so partitioning batch ``k`` sees
the feedback of batches ``<= k - 2``, in batch order, under every
executor.  The same bytes flow in the same order everywhere and the
differential suites stay byte-identical across backends and injected
task crashes.

Techniques that do not opt in (``uses_feedback = False``, the default)
are wired to :data:`NULL_FEEDBACK`, whose ``publish``/``deliver`` are
no-ops — the engine does not even construct the feedback object, so the
pre-existing techniques run byte-identical to the pre-feedback engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "FEEDBACK_LAG",
    "FeedbackBuffer",
    "NULL_FEEDBACK",
    "NullFeedback",
    "WorkerLoadFeedback",
]

#: Batches between a batch completing and its feedback being delivered:
#: partitioning batch ``k`` sees feedback of batches ``<= k - FEEDBACK_LAG``.
#: Load reports reach the partitioner two heartbeats late; the value is
#: fixed (every stored shoot-out and golden-file number depends on it) so
#: results are reproducible.
FEEDBACK_LAG = 2


@dataclass(frozen=True, slots=True)
class WorkerLoadFeedback:
    """Observed load of one completed batch, per Map block / Reduce bucket.

    Loads are the *simulated* task durations of the cost model — the
    quantity the paper's makespan (Eqn. 1) is built from — so they are
    identical across execution backends by the determinism contract.
    """

    batch_index: int
    #: tuple weight per data block, as partitioned
    block_sizes: tuple[int, ...]
    #: distinct keys per data block
    block_cardinalities: tuple[int, ...]
    #: simulated seconds of each Map task (one per block)
    block_loads: tuple[float, ...]
    #: input weight per Reduce bucket after the shuffle
    bucket_weights: tuple[int, ...]
    #: simulated seconds of each Reduce task (one per bucket)
    bucket_loads: tuple[float, ...]

    def relative_block_loads(self) -> tuple[float, ...]:
        """Per-block load divided by the mean (1.0 = perfectly balanced)."""
        if not self.block_loads:
            return ()
        mean = sum(self.block_loads) / len(self.block_loads)
        if mean <= 0.0:
            return tuple(1.0 for _ in self.block_loads)
        return tuple(load / mean for load in self.block_loads)


class NullFeedback:
    """The disabled channel: drops publishes, delivers nothing.

    Default wiring for every technique with ``uses_feedback = False`` —
    the engine checks ``enabled`` before even building the feedback
    object, so the no-feedback path costs nothing and perturbs nothing.
    """

    enabled: bool = False

    def publish(self, feedback: WorkerLoadFeedback) -> None:
        pass

    def deliver(self, partitioner, upcoming_index: int) -> int:
        return 0


#: shared no-op channel (stateless, safe to share across runs)
NULL_FEEDBACK = NullFeedback()


@dataclass
class FeedbackBuffer:
    """Orders and lags feedback delivery.

    ``publish`` is called when a batch's execution becomes available
    (inside its own heartbeat); ``deliver(partitioner, k)`` is called
    just before batch ``k`` is partitioned and hands over — in batch
    order — every pending feedback with ``batch_index <= k - lag``.
    """

    lag: int = FEEDBACK_LAG
    enabled: bool = True
    _pending: list[WorkerLoadFeedback] = field(default_factory=list)

    def publish(self, feedback: WorkerLoadFeedback) -> None:
        self._pending.append(feedback)

    def deliver(self, partitioner, upcoming_index: int) -> int:
        """Release all due feedback to ``partitioner.observe_load``.

        Returns the number of feedback objects delivered.
        """
        cutoff = upcoming_index - self.lag
        due = [fb for fb in self._pending if fb.batch_index <= cutoff]
        if not due:
            return 0
        self._pending = [fb for fb in self._pending if fb.batch_index > cutoff]
        due.sort(key=lambda fb: fb.batch_index)
        for fb in due:
            partitioner.observe_load(fb)
        return len(due)
