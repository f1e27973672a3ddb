"""Structured span tracing for the micro-batch engine.

A *span* is one named, timed piece of work with an optional parent —
the driver emits a tree per run::

    run
    └── batch (index=k)
        ├── buffer
        ├── partition
        ├── map_task (task_id=i, attempt, pid)   # one per Map task
        ├── shuffle
        ├── reduce_task (task_id=j, attempt, pid)
        └── window_merge

Two kinds of spans exist:

- **driver spans** are opened/closed on a stack (``Tracer.span`` or the
  explicit ``start``/``end`` pair), so nesting follows the call
  structure for free;
- **worker spans** are measured *inside* a worker process (a
  :class:`WorkerSpan` riding back on the task result payload) and
  stitched into the driver tree afterwards with :meth:`Tracer.record`,
  tagged with the worker pid — the only way per-attempt Map/Reduce
  timing can reach the driver across a process boundary.

Timestamps are ``time.time()`` epoch seconds: the one clock that is
comparable across the driver and its worker processes.  Nothing here
enters the engine's determinism contract — spans are observational
wall-clock, exactly like the existing ``compare=False`` measured-seconds
fields — and the :class:`NullTracer` default makes every call a no-op so
the disabled path stays free.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

__all__ = ["Span", "WorkerSpan", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass(slots=True)
class Span:
    """One named, timed unit of work in the run's trace tree."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float = 0.0
    pid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        return max(0.0, self.end - self.start)

    @property
    def finished(self) -> bool:
        return self.end >= self.start and self.end > 0.0


@dataclass(frozen=True, slots=True)
class WorkerSpan:
    """Task-body timing measured inside a worker process.

    Created by the worker entry points when tracing is on, shipped back
    on the task result (``compare=False``, so differential equality is
    untouched), and stitched into the driver trace by the executor.
    """

    pid: int
    start: float
    end: float


class Tracer:
    """Collects a tree of spans for one run.

    Thread-aware: the open-span stack is *per thread* (spans opened on
    different threads nest independently and are parented explicitly
    across the boundary), while span-id allocation and the
    finished-span list are guarded by a lock so concurrent
    ``end``/``record`` calls never lose a span.  Worker *processes*
    still never see the tracer — their measurements travel back as
    :class:`WorkerSpan` payloads.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    @property
    def _stack(self) -> list[Span]:
        """The calling thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- driver spans ---------------------------------------------------
    def start(self, name: str, *, parent: int | None = None, **attrs: Any) -> Span:
        """Open a span; parent defaults to the innermost open span."""
        if parent is None and self._stack:
            parent = self._stack[-1].span_id
        span = Span(
            name=name,
            span_id=self._alloc_id(),
            parent_id=parent,
            start=time.time(),
            pid=os.getpid(),
            attrs=dict(attrs),
        )
        self._stack.append(span)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close ``span`` (and anything left open inside it) and keep it.

        Unwinds the *calling thread's* stack — a span must be ended on
        the thread that started it.
        """
        stack = self._stack
        while stack:
            top = stack.pop()
            if top is span:
                break
        span.end = time.time()
        if attrs:
            span.attrs.update(attrs)
        with self._lock:
            self.spans.append(span)
        return span

    @contextmanager
    def span(
        self, name: str, *, parent: int | None = None, **attrs: Any
    ) -> Iterator[Span]:
        s = self.start(name, parent=parent, **attrs)
        try:
            yield s
        finally:
            self.end(s)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # -- stitched spans -------------------------------------------------
    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        pid: int | None = None,
        **attrs: Any,
    ) -> Span:
        """Add an already-measured span (e.g. a worker-side task body)."""
        if parent is None and self._stack:
            parent = self._stack[-1].span_id
        span = Span(
            name=name,
            span_id=self._alloc_id(),
            parent_id=parent,
            start=start,
            end=end,
            pid=pid if pid is not None else os.getpid(),
            attrs=dict(attrs),
        )
        with self._lock:
            self.spans.append(span)
        return span

    def event(self, name: str, *, parent: int | None = None, **attrs: Any) -> Span:
        """Zero-duration marker (task retry, pool resurrection, fallback)."""
        now = time.time()
        return self.record(name, now, now, parent=parent, **attrs)

    # -- introspection --------------------------------------------------
    def _alloc_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def tree_signature(self) -> tuple:
        """Wall-clock-free structural fingerprint of the trace.

        Nested ``(name, sorted(child signatures))`` tuples: two runs of
        the same seeded workload must produce *equal* signatures no
        matter how long anything took or which worker pids served the
        tasks — the determinism property the trace layer must uphold.
        Children sort by their own signature, so racing completion
        orders (retries under injected faults) cannot perturb it.
        """
        children: dict[Optional[int], list[Span]] = {}
        for span in self.spans:
            children.setdefault(span.parent_id, []).append(span)
        known = {span.span_id for span in self.spans}

        def sig(span: Span) -> tuple:
            kids = sorted(sig(c) for c in children.get(span.span_id, []))
            return (span.name, tuple(kids))

        roots = [
            s
            for s in self.spans
            if s.parent_id is None or s.parent_id not in known
        ]
        return tuple(sorted(sig(r) for r in roots))

    def __len__(self) -> int:
        return len(self.spans)


class NullTracer(Tracer):
    """The disabled tracer: every operation is a cheap no-op.

    Shares one dummy span so ``with tracer.span(...)`` costs a couple of
    attribute loads and nothing else — the default path must add no
    measurable overhead and never perturb determinism.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._dummy = Span(name="", span_id=0, parent_id=None, start=0.0)

    def start(self, name: str, *, parent: int | None = None, **attrs: Any) -> Span:
        return self._dummy

    def end(self, span: Span, **attrs: Any) -> Span:
        return self._dummy

    @contextmanager
    def span(
        self, name: str, *, parent: int | None = None, **attrs: Any
    ) -> Iterator[Span]:
        yield self._dummy

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        pid: int | None = None,
        **attrs: Any,
    ) -> Span:
        return self._dummy

    def event(self, name: str, *, parent: int | None = None, **attrs: Any) -> Span:
        return self._dummy


#: shared no-op tracer — the default everywhere a tracer is accepted
NULL_TRACER = NullTracer()
