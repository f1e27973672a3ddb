"""Exporters: Chrome trace, JSONL, Prometheus text, trace summary."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    chrome_trace_events,
    format_trace_summary,
    parse_prometheus,
    prometheus_text,
    read_chrome_trace,
    summarize_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def _sample_tracer():
    tr = Tracer()
    with tr.span("run"):
        with tr.span("batch", index=0):
            tr.record("map_task", 1.0, 1.25, pid=99, task_id=0,
                      batch=0, attempt=0)
            tr.record("map_task", 1.0, 1.05, pid=98, task_id=1,
                      batch=0, attempt=1)
            with tr.span("shuffle"):
                pass
            tr.record("reduce_task", 1.3, 1.4, pid=99, task_id=0,
                      batch=0, attempt=0)
    return tr


def test_chrome_trace_events_structure():
    tr = _sample_tracer()
    events = chrome_trace_events(tr.spans)
    assert len(events) == len(tr.spans)
    for ev in events:
        assert ev["ph"] == "X"
        assert ev["ts"] >= 0 and ev["dur"] >= 0
        assert "span_id" in ev["args"]
    stitched = [e for e in events if e["name"] == "map_task"]
    assert {e["pid"] for e in stitched} == {98, 99}
    # microsecond conversion
    assert stitched[0]["dur"] == pytest.approx(0.25 * 1e6)


def test_chrome_trace_roundtrip(tmp_path):
    tr = _sample_tracer()
    path = write_chrome_trace(tr.spans, tmp_path / "trace.json")
    data = json.loads(path.read_text())
    assert "traceEvents" in data
    events = read_chrome_trace(path)
    assert len(events) == len(tr.spans)


def test_read_chrome_trace_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
    with pytest.raises(ValueError, match="missing"):
        read_chrome_trace(bad)
    not_list = tmp_path / "notlist.json"
    not_list.write_text(json.dumps({"traceEvents": "nope"}))
    with pytest.raises(ValueError, match="not a list"):
        read_chrome_trace(not_list)


def test_jsonl_has_span_then_metric_lines(tmp_path):
    tr = _sample_tracer()
    reg = MetricsRegistry()
    reg.counter("prompt_batches_total", "batches").inc(3)
    path = write_jsonl(tmp_path / "run.jsonl", tr.spans, reg)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    kinds = [l["type"] for l in lines]
    assert kinds == ["span"] * len(tr.spans) + ["metric"]
    assert lines[-1] == {
        "type": "metric", "name": "prompt_batches_total", "value": 3.0
    }


def test_prometheus_text_and_parser_roundtrip():
    reg = MetricsRegistry()
    reg.counter("prompt_batches_total", "batches processed").inc(12)
    reg.gauge("prompt_partition_bsi", labels={"technique": "prompt"}).set(0.93)
    h = reg.histogram("prompt_batch_latency_seconds", "latency",
                      buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    text = prometheus_text(reg)
    assert "# TYPE prompt_batches_total counter" in text
    assert "# HELP prompt_batches_total batches processed" in text
    assert 'prompt_partition_bsi{technique="prompt"} 0.93' in text
    assert 'prompt_batch_latency_seconds_bucket{le="+Inf"} 3' in text
    samples = parse_prometheus(text)
    assert samples["prompt_batches_total"] == 12.0
    assert samples['prompt_batch_latency_seconds_bucket{le="0.1"}'] == 1.0
    assert samples['prompt_batch_latency_seconds_bucket{le="1"}'] == 2.0
    assert samples["prompt_batch_latency_seconds_count"] == 3.0


def test_parse_prometheus_rejects_garbage():
    with pytest.raises(ValueError):
        parse_prometheus("prompt_thing not-a-number\n")
    with pytest.raises(ValueError):
        parse_prometheus("lonely\n")


def test_write_prometheus(tmp_path):
    reg = MetricsRegistry()
    reg.counter("x_total").inc()
    path = write_prometheus(reg, tmp_path / "m.prom")
    assert parse_prometheus(path.read_text())["x_total"] == 1.0


def test_summarize_trace_and_format(tmp_path):
    tr = _sample_tracer()
    path = write_chrome_trace(tr.spans, tmp_path / "t.json")
    summary = summarize_trace(path, top_k=2)
    assert summary["phases"]["map_task"]["count"] == 2
    assert summary["phases"]["map_task"]["max_s"] == pytest.approx(0.25)
    slowest = summary["slowest_tasks"]
    assert len(slowest) == 2
    # ordered slowest-first, carrying the attempt tag through
    assert slowest[0]["duration_s"] >= slowest[1]["duration_s"]
    assert slowest[0]["phase"] == "map_task"
    assert slowest[0]["attempt"] == 0
    text = format_trace_summary(summary)
    assert "per-phase breakdown:" in text
    assert "slowest tasks:" in text
    assert "map_task[0]" in text
