"""Cross-shard metrics rollup: ``merge_from`` and the ``shard`` label.

The sharded driver folds each shard engine's registry into one rollup
registry under ``extra_labels={"shard": "i"}``.  This suite pins the
fold semantics per instrument kind and — the satellite check from the
issue — proves in the Prometheus text format that shard-labeled series
coexist with unlabeled same-name series without collision, surviving a
``prometheus_text`` → ``parse_prometheus`` round trip.
"""

from __future__ import annotations

import pytest

from repro.obs.export import parse_prometheus, prometheus_text
from repro.obs.metrics import NULL_METRICS, MetricsRegistry


def _shard_registry(shard: int) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("prompt_tuples_total", "tuples ingested").inc(100 * (shard + 1))
    reg.gauge("prompt_backlog", "queued tuples").set(float(shard))
    reg.histogram(
        "prompt_batch_seconds", "batch latency", buckets=(0.1, 1.0)
    ).observe(0.5)
    return reg


def test_counters_accumulate_and_gauges_take_last_value():
    rollup = MetricsRegistry()
    src = MetricsRegistry()
    src.counter("c").inc(3)
    src.gauge("g").set(7.0)
    rollup.merge_from(src)
    rollup.merge_from(src)
    metrics = {m.name: m for m in rollup.collect()}
    assert metrics["c"].value == 6  # counter folds additively
    assert metrics["g"].value == 7.0  # gauge takes the source value


def test_histograms_add_buckets_sum_and_count():
    rollup = MetricsRegistry()
    for v in (0.05, 0.5):
        src = MetricsRegistry()
        src.histogram("h", buckets=(0.1, 1.0)).observe(v)
        rollup.merge_from(src)
    (hist,) = rollup.collect()
    assert hist.count == 2
    assert hist.sum == pytest.approx(0.55)
    assert hist.bucket_counts == [1, 1]


def test_histogram_bucket_mismatch_is_an_error():
    rollup = MetricsRegistry()
    rollup.histogram("h", buckets=(0.1, 1.0)).observe(0.5)
    src = MetricsRegistry()
    src.histogram("h", buckets=(0.25, 2.0)).observe(0.5)
    with pytest.raises(ValueError, match="bucket mismatch"):
        rollup.merge_from(src)


def test_null_registry_merge_is_a_no_op():
    src = MetricsRegistry()
    src.counter("c").inc()
    NULL_METRICS.merge_from(src, extra_labels={"shard": "0"})
    assert list(NULL_METRICS.collect()) == []


def test_shard_label_does_not_collide_with_unlabeled_series():
    """Same metric names, with and without ``shard=`` — distinct series.

    Metric identity is ``(name, sorted labels)``, so the driver-level
    unlabeled series and the per-shard rollups are separate samples in
    the exposition text, each keeping its own value.
    """
    rollup = MetricsRegistry()
    # driver-level, unlabeled: same names the shard engines use
    rollup.counter("prompt_tuples_total", "tuples ingested").inc(1)
    rollup.gauge("prompt_backlog", "queued tuples").set(99.0)
    for shard in range(2):
        rollup.merge_from(_shard_registry(shard), {"shard": str(shard)})

    text = prometheus_text(rollup)
    samples = parse_prometheus(text)

    assert samples["prompt_tuples_total"] == 1
    assert samples['prompt_tuples_total{shard="0"}'] == 100
    assert samples['prompt_tuples_total{shard="1"}'] == 200
    assert samples["prompt_backlog"] == 99.0
    assert samples['prompt_backlog{shard="0"}'] == 0.0
    assert samples['prompt_backlog{shard="1"}'] == 1.0
    # histogram series carry the shard label on every sample line
    assert samples['prompt_batch_seconds_count{shard="0"}'] == 1
    assert samples['prompt_batch_seconds_count{shard="1"}'] == 1
    # one TYPE header per metric name even with many label sets
    assert text.count("# TYPE prompt_tuples_total counter") == 1


def test_merge_preserves_source_labels_under_the_shard_label():
    rollup = MetricsRegistry()
    src = MetricsRegistry()
    src.counter("c", labels={"stage": "map"}).inc(5)
    rollup.merge_from(src, {"shard": "3"})
    (metric,) = rollup.collect()
    assert dict(metric.labels) == {"shard": "3", "stage": "map"}


def test_sharded_run_exports_shard_labeled_series(tmp_path):
    """End to end: a sharded run's registry round-trips through the text format."""
    import repro
    from repro.queries import wordcount_query
    from repro.workloads import MultiTenantSource, TenantStream, synd_source

    union = MultiTenantSource(
        [
            TenantStream(
                f"t{i}", synd_source(1.2, num_keys=30, rate=300.0, seed=60 + i)
            )
            for i in range(3)
        ]
    )
    result = repro.run(
        union,
        wordcount_query(window_length=1.0),
        num_batches=2,
        topology=repro.Sharded(shards=2),
        engine=repro.EngineConfig(
            batch_interval=0.5,
            num_blocks=2,
            observability=repro.ObservabilityConfig(),
        ),
    )
    assert result.observability is not None
    samples = parse_prometheus(
        prometheus_text(result.observability.metrics)
    )
    assert samples["prompt_shard_count"] == 2
    shard_labeled = [k for k in samples if 'shard="' in k]
    assert any('shard="0"' in k for k in shard_labeled)
    assert any('shard="1"' in k for k in shard_labeled)
