"""Exporters for spans and metrics, plus the trace summarizer.

Three on-disk formats, all zero-dependency:

- **Chrome trace-event JSON** (:func:`write_chrome_trace`) — loadable in
  ``chrome://tracing`` or Perfetto.  Spans become complete (``"X"``)
  events; worker pids land on their own rows so stitched Map/Reduce task
  bodies visually separate from driver work.  Span attrs travel in
  ``args`` and the span/parent ids are preserved there, so the exact
  tree is recoverable (:func:`read_chrome_trace`).
- **JSONL** (:func:`write_jsonl`) — one JSON object per line, spans
  (``{"type": "span", ...}``) followed by a metrics snapshot
  (``{"type": "metric", ...}`` lines); greppable and streamable.
- **Prometheus text** (:func:`prometheus_text`) — a pull-style snapshot
  of the registry in the v0 exposition format; :func:`parse_prometheus`
  is the matching minimal parser (CI uses it to validate the artifact).

:func:`summarize_trace` + :func:`format_trace_summary` back the
``repro trace summarize`` CLI: per-phase total/mean/max wall-clock and
the top-k slowest Map/Reduce tasks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from .metrics import MetricsRegistry
from .tracing import Span

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "read_chrome_trace",
    "write_jsonl",
    "prometheus_text",
    "write_prometheus",
    "parse_prometheus",
    "summarize_trace",
    "format_trace_summary",
]


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace_events(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """Spans as Chrome trace complete events (ts/dur in microseconds)."""
    events = []
    for span in spans:
        args = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.pid,
                "tid": span.pid,
                "cat": "repro",
                "args": args,
            }
        )
    return events


def write_chrome_trace(spans: Iterable[Span], path: str | Path) -> Path:
    """Write ``{"traceEvents": [...]}`` JSON; returns the path."""
    path = Path(path)
    payload = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(payload, sort_keys=True))
    return path


def read_chrome_trace(path: str | Path) -> list[dict[str, Any]]:
    """Load and structurally validate a Chrome trace file's events."""
    data = json.loads(Path(path).read_text())
    events = data["traceEvents"] if isinstance(data, dict) else data
    if not isinstance(events, list):
        raise ValueError(f"{path}: traceEvents is not a list")
    for ev in events:
        for required in ("name", "ph", "ts"):
            if required not in ev:
                raise ValueError(f"{path}: event missing {required!r}: {ev}")
    return events


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(
    path: str | Path,
    spans: Iterable[Span] = (),
    metrics: MetricsRegistry | None = None,
) -> Path:
    """Span lines then metric lines, one JSON object each."""
    path = Path(path)
    with path.open("w") as fh:
        for span in spans:
            fh.write(
                json.dumps(
                    {
                        "type": "span",
                        "name": span.name,
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        "start": span.start,
                        "end": span.end,
                        "duration": span.duration,
                        "pid": span.pid,
                        "attrs": span.attrs,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        if metrics is not None:
            for name, value in metrics.as_dict().items():
                fh.write(
                    json.dumps(
                        {"type": "metric", "name": name, "value": value},
                        sort_keys=True,
                    )
                    + "\n"
                )
    return path


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _fmt_labels(labels: Sequence[tuple[str, str]], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """Snapshot the registry in the Prometheus v0 text format."""
    lines: list[str] = []
    seen_header: set[str] = set()
    for metric in registry.collect():
        if metric.name not in seen_header:
            seen_header.add(metric.name)
            help_text = registry.help_for(metric.name)
            if help_text:
                lines.append(f"# HELP {metric.name} {help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if metric.kind == "histogram":
            for bound, count in zip(metric.buckets, metric.cumulative_counts()):
                le = 'le="%g"' % bound
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_fmt_labels(metric.labels, le)} {count}"
                )
            inf = 'le="+Inf"'
            lines.append(
                f"{metric.name}_bucket"
                f"{_fmt_labels(metric.labels, inf)} {metric.count}"
            )
            lines.append(
                f"{metric.name}_sum{_fmt_labels(metric.labels)} {metric.sum:g}"
            )
            lines.append(
                f"{metric.name}_count{_fmt_labels(metric.labels)} {metric.count}"
            )
        else:
            lines.append(
                f"{metric.name}{_fmt_labels(metric.labels)} {metric.value:g}"
            )
    return "\n".join(lines) + "\n"


def write_prometheus(registry: MetricsRegistry, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(prometheus_text(registry))
    return path


def parse_prometheus(text: str) -> dict[str, float]:
    """Minimal exposition-format parser: sample name+labels -> value.

    Raises ``ValueError`` on malformed sample lines — which is exactly
    what the CI artifact check needs; it is not a full client library.
    """
    samples: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        if not head:
            raise ValueError(f"line {lineno}: not a sample: {line!r}")
        try:
            samples[head] = float(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value {value!r}") from exc
    return samples


# ----------------------------------------------------------------------
# trace summarization (CLI: repro trace summarize)
# ----------------------------------------------------------------------
#: span names that count as "tasks" for the top-k slowest listing
TASK_SPAN_NAMES = ("map_task", "reduce_task")


def summarize_trace(path: str | Path, top_k: int = 5) -> dict[str, Any]:
    """Per-phase wall-clock breakdown, top-k slowest tasks, payload bytes.

    The ``payload`` section aggregates the delta-dispatch accounting the
    parallel backend stitches into the trace: per-task payload sizes
    (the ``payload_bytes`` attr on ``map_task``/``reduce_task`` spans)
    and run-context broadcasts (``context_install`` events).  Traces
    from serial runs have neither, so every figure reads 0.
    """
    events = read_chrome_trace(path)
    phases: dict[str, dict[str, float]] = {}
    tasks: list[dict[str, Any]] = []
    payload = {
        "task_payload_bytes": 0,
        "tasks_with_payload": 0,
        "mean_bytes_per_task": 0.0,
        "max_bytes_per_task": 0,
        "context_installs": 0,
        "context_bytes": 0,
    }
    for ev in events:
        if ev.get("ph") != "X":
            continue
        name = ev["name"]
        dur = float(ev.get("dur", 0.0)) / 1e6
        agg = phases.setdefault(
            name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        agg["count"] += 1
        agg["total_s"] += dur
        agg["max_s"] = max(agg["max_s"], dur)
        if name == "context_install":
            payload["context_installs"] += 1
            payload["context_bytes"] += int(ev.get("args", {}).get("bytes", 0))
        if name in TASK_SPAN_NAMES:
            args = ev.get("args", {})
            nbytes = args.get("payload_bytes")
            if nbytes is not None:
                payload["task_payload_bytes"] += int(nbytes)
                payload["tasks_with_payload"] += 1
                payload["max_bytes_per_task"] = max(
                    payload["max_bytes_per_task"], int(nbytes)
                )
            tasks.append(
                {
                    "phase": name,
                    "task_id": args.get("task_id"),
                    "batch": args.get("batch"),
                    "attempt": args.get("attempt"),
                    "pid": ev.get("pid"),
                    "duration_s": dur,
                }
            )
    for agg in phases.values():
        agg["mean_s"] = agg["total_s"] / agg["count"] if agg["count"] else 0.0
    if payload["tasks_with_payload"]:
        payload["mean_bytes_per_task"] = (
            payload["task_payload_bytes"] / payload["tasks_with_payload"]
        )
    tasks.sort(key=lambda t: t["duration_s"], reverse=True)
    return {
        "phases": phases,
        "slowest_tasks": tasks[:top_k],
        "payload": payload,
    }


def format_trace_summary(summary: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize_trace`'s output."""
    lines = ["per-phase breakdown:"]
    lines.append(
        f"  {'phase':<14} {'count':>6} {'total_s':>10} {'mean_s':>10} {'max_s':>10}"
    )
    phases = summary["phases"]
    for name in sorted(phases, key=lambda n: -phases[n]["total_s"]):
        agg = phases[name]
        lines.append(
            f"  {name:<14} {agg['count']:>6d} {agg['total_s']:>10.6f} "
            f"{agg['mean_s']:>10.6f} {agg['max_s']:>10.6f}"
        )
    if summary["slowest_tasks"]:
        lines.append("slowest tasks:")
        for t in summary["slowest_tasks"]:
            lines.append(
                f"  {t['phase']}[{t['task_id']}] batch={t['batch']} "
                f"attempt={t['attempt']} pid={t['pid']} {t['duration_s']:.6f}s"
            )
    payload = summary.get("payload")
    if payload and (
        payload["task_payload_bytes"] or payload["context_installs"]
    ):
        # only traces from delta-accounting runs carry this data, so the
        # section is omitted for (older or serial) traces without it
        lines.append("payload:")
        lines.append(
            f"  task payloads   {payload['task_payload_bytes']:>12,} bytes over "
            f"{payload['tasks_with_payload']} task(s) "
            f"(mean {payload['mean_bytes_per_task']:,.0f}, "
            f"max {payload['max_bytes_per_task']:,})"
        )
        lines.append(
            f"  context installs {payload['context_installs']:>11,} "
            f"({payload['context_bytes']:,} bytes broadcast)"
        )
    return "\n".join(lines)
