"""Batch job scheduler: FIFO, one-job-at-a-time pipeline execution.

Spark Streaming's driver runs batch jobs sequentially in submission
order; a batch whose predecessor overruns waits in the scheduler queue
(Cases II-IV of Figure 2 and the queueing the paper's stability
definition forbids).  The scheduler lives on the simulation event loop:
``submit`` is called at the batch's ready time (its heartbeat) and the
completion callback fires at the simulated finish instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .simulation import EventLoop

__all__ = ["ScheduledJob", "PipelineScheduler"]


@dataclass(slots=True)
class ScheduledJob:
    """One batch job's timeline through the scheduler."""

    index: int
    ready_at: float
    duration: float
    start: float
    finish: float

    @property
    def queue_delay(self) -> float:
        return self.start - self.ready_at


class PipelineScheduler:
    """Sequential batch-job execution with queueing."""

    def __init__(self, loop: EventLoop) -> None:
        self.loop = loop
        self._busy_until = 0.0
        self._jobs: list[ScheduledJob] = []

    @property
    def jobs(self) -> list[ScheduledJob]:
        return list(self._jobs)

    @property
    def busy_until(self) -> float:
        return self._busy_until

    def queue_depth(self, now: float) -> int:
        """Jobs submitted but not yet started at ``now``."""
        return sum(1 for j in self._jobs if j.start > now)

    def submit(
        self,
        index: int,
        duration: float,
        on_finish: Optional[Callable[[ScheduledJob], None]] = None,
    ) -> ScheduledJob:
        """Submit a batch job at the current simulated instant.

        The job starts when the pipeline frees up (FIFO) and finishes
        ``duration`` later; ``on_finish`` is scheduled at that instant.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        ready = self.loop.now
        start = max(ready, self._busy_until)
        finish = start + duration
        self._busy_until = finish
        job = ScheduledJob(
            index=index, ready_at=ready, duration=duration, start=start, finish=finish
        )
        self._jobs.append(job)
        if on_finish is not None:
            # Priority -1: completions at an instant precede the
            # heartbeat planned for the same instant, so elasticity
            # decisions see every batch that has truly finished.
            self.loop.schedule(
                finish,
                lambda: on_finish(job),
                priority=-1,
                label=f"finish-batch-{index}",
            )
        return job
