"""Pull-based metrics registry: counters, gauges, fixed-bucket histograms.

Engine layers *publish* into a :class:`MetricsRegistry`; nothing is
pushed anywhere — exporters (:mod:`repro.obs.export`) snapshot the
registry on demand, Prometheus-style.  Metric identity is
``(name, labels)``: asking the registry for the same name and label set
returns the same instrument, so publishers never need to coordinate.

Naming follows the Prometheus conventions the catalog in
``docs/observability.md`` documents: ``prompt_*`` prefix, ``_total``
suffix on counters, ``_seconds`` on time histograms.  The
:class:`NullMetricsRegistry` default turns every instrument into a
shared no-op so the disabled path costs nothing and cannot perturb the
engine's determinism contract.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_BUCKETS",
]

#: default histogram buckets (seconds-scale, Prometheus-style)
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 30.0,
)

Labels = tuple[tuple[str, str], ...]


def _labelkey(labels: Mapping[str, str] | None) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count.

    Updates are guarded by a per-instrument lock: an unguarded ``+=``
    read-modify-write from two publishing threads can lose increments.
    """

    kind = "counter"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-observed value; may go up or down (lock-guarded like Counter)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Fixed-bucket histogram with cumulative counts, sum and count.

    One lock covers sum/count/bucket updates so a concurrent publisher
    can never leave the three views inconsistent.
    """

    kind = "histogram"
    __slots__ = (
        "name", "labels", "buckets", "bucket_counts", "sum", "count", "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.bucket_counts = [0] * len(bounds)  # non-cumulative per bucket
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"histogram {self.name} observed NaN")
        ix = bisect_left(self.buckets, value)
        with self._lock:
            self.sum += value
            self.count += 1
            if ix < len(self.buckets):
                self.bucket_counts[ix] += 1

    def cumulative_counts(self) -> list[int]:
        """Per-bucket counts accumulated the Prometheus ``le`` way."""
        out, running = [], 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out


class MetricsRegistry:
    """Get-or-create instrument store keyed by ``(name, labels)``."""

    enabled: bool = True

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, Labels], Any] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get(
        self,
        cls: type,
        name: str,
        help: str,
        labels: Mapping[str, str] | None,
        **kwargs: Any,
    ) -> Any:
        key = (name, _labelkey(labels))
        with self._lock:
            known = self._kinds.get(name)
            if known is not None and known != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {known}, not a {cls.kind}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, key[1], **kwargs)
                self._metrics[key] = metric
                self._kinds[name] = cls.kind
                if help:
                    self._help[name] = help
        return metric

    def counter(
        self, name: str, help: str = "", labels: Mapping[str, str] | None = None
    ) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Mapping[str, str] | None = None
    ) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    # ------------------------------------------------------------------
    def collect(self) -> list[Any]:
        """Every instrument, ordered by (name, labels) for stable output."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    def kind_of(self, name: str) -> str | None:
        return self._kinds.get(name)

    def as_dict(self) -> dict[str, Any]:
        """Plain-data snapshot (JSONL export and tests)."""
        out: dict[str, Any] = {}
        for metric in self.collect():
            key = metric.name
            if metric.labels:
                key += "{" + ",".join(f"{k}={v}" for k, v in metric.labels) + "}"
            if metric.kind == "histogram":
                out[key] = {
                    "sum": metric.sum,
                    "count": metric.count,
                    "buckets": dict(
                        zip(map(str, metric.buckets), metric.cumulative_counts())
                    ),
                }
            else:
                out[key] = metric.value
        return out

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    def merge_from(
        self,
        other: "MetricsRegistry",
        extra_labels: Mapping[str, str] | None = None,
    ) -> None:
        """Fold another registry's instruments into this one.

        The sharded driver rolls every shard engine's registry up into
        one cross-shard registry with ``extra_labels={"shard": "i"}``:
        counters accumulate, gauges take the source's last value, and
        histograms add bucket counts/sum/count.  With distinct extra
        labels per source registry the folded series never collide —
        and they coexist with same-name unlabeled series, since metric
        identity is ``(name, labels)``.
        """
        extra = dict(extra_labels or {})
        for metric in other.collect():
            labels = {**dict(metric.labels), **extra}
            help = other.help_for(metric.name)
            if metric.kind == "counter":
                self.counter(metric.name, help, labels).inc(metric.value)
            elif metric.kind == "gauge":
                self.gauge(metric.name, help, labels).set(metric.value)
            elif metric.kind == "histogram":
                mine = self.histogram(
                    metric.name, help, labels, buckets=metric.buckets
                )
                if mine.buckets != metric.buckets:
                    raise ValueError(
                        f"histogram {metric.name!r} bucket mismatch on merge"
                    )
                with mine._lock:
                    for i, c in enumerate(metric.bucket_counts):
                        mine.bucket_counts[i] += c
                    mine.sum += metric.sum
                    mine.count += metric.count


class _NullInstrument:
    """One object that absorbs every instrument method as a no-op."""

    kind = "null"
    name = ""
    labels: Labels = ()

    def inc(self, amount: float = 1.0) -> None: ...
    def dec(self, amount: float = 1.0) -> None: ...
    def set(self, value: float) -> None: ...
    def observe(self, value: float) -> None: ...


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: hands out a shared no-op instrument."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null = _NullInstrument()

    def counter(self, name, help="", labels=None):  # type: ignore[override]
        return self._null

    def gauge(self, name, help="", labels=None):  # type: ignore[override]
        return self._null

    def histogram(self, name, help="", labels=None, buckets=DEFAULT_BUCKETS):  # type: ignore[override]
        return self._null

    def merge_from(self, other, extra_labels=None):  # type: ignore[override]
        return None


#: shared no-op registry — the default wherever metrics are accepted
NULL_METRICS = NullMetricsRegistry()
