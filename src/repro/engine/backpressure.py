"""Back-pressure monitoring and the maximum-throughput criterion.

The paper measures throughput operationally: "Spark Streaming
back-pressure is used to indicate when the maximum ingestion rate is
reached" (Section 7) — back-pressure fires when batches queue beyond
what the pipeline can absorb, signalling the source to slow down.  The
monitor reproduces that signal; the bench harness binary-searches the
highest source rate that never trips it (Figure 11's y-axis).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BackpressureConfig", "BackpressureMonitor"]


@dataclass(frozen=True, slots=True)
class BackpressureConfig:
    """When is the system considered to have fallen behind?"""

    #: trip when a batch waits longer than this many intervals to start
    max_queue_intervals: float = 1.0
    #: trip when the average load over the trailing window exceeds this
    max_mean_load: float = 1.0
    #: batches ignored while the system warms up (Section 7, measure (4))
    warmup_batches: int = 2

    def __post_init__(self) -> None:
        if self.max_queue_intervals < 0:
            raise ValueError("max_queue_intervals must be >= 0")
        if self.max_mean_load <= 0:
            raise ValueError("max_mean_load must be positive")
        if self.warmup_batches < 0:
            raise ValueError("warmup_batches must be >= 0")


class BackpressureMonitor:
    """Online back-pressure signal over batch completions."""

    def __init__(self, config: BackpressureConfig | None = None) -> None:
        self.config = config or BackpressureConfig()
        self._loads: list[float] = []
        self._triggered_at: int | None = None

    @property
    def triggered(self) -> bool:
        return self._triggered_at is not None

    @property
    def triggered_at(self) -> int | None:
        """Batch index at which back-pressure first fired."""
        return self._triggered_at

    def observe(self, batch_index: int, load: float, queue_delay: float, batch_interval: float) -> bool:
        """Feed one completed batch; returns True if back-pressure fired."""
        self._loads.append(load)
        if self.triggered:
            return True
        if batch_index < self.config.warmup_batches:
            return False
        if queue_delay > self.config.max_queue_intervals * batch_interval:
            self._triggered_at = batch_index
            return True
        window = self._loads[self.config.warmup_batches :]
        if window:
            mean = sum(window) / len(window)
            if mean > self.config.max_mean_load:
                self._triggered_at = batch_index
                return True
        return False
