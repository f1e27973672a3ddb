"""Back-pressure signal: the Figure 11 stability criterion."""

from __future__ import annotations

import pytest

from repro.engine.backpressure import BackpressureConfig, BackpressureMonitor


def test_monitor_quiet_under_light_load():
    monitor = BackpressureMonitor()
    for i in range(10):
        assert not monitor.observe(i, load=0.5, queue_delay=0.0, batch_interval=1.0)
    assert not monitor.triggered


def test_monitor_trips_on_queue_delay():
    monitor = BackpressureMonitor(BackpressureConfig(max_queue_intervals=1.0, warmup_batches=0))
    assert monitor.observe(0, load=0.5, queue_delay=1.5, batch_interval=1.0)
    assert monitor.triggered
    assert monitor.triggered_at == 0


def test_monitor_trips_on_sustained_overload():
    monitor = BackpressureMonitor(BackpressureConfig(warmup_batches=1))
    assert not monitor.observe(0, load=5.0, queue_delay=0.0, batch_interval=1.0)  # warmup
    fired = [monitor.observe(i, load=1.2, queue_delay=0.0, batch_interval=1.0) for i in range(1, 4)]
    assert any(fired)


def test_monitor_ignores_warmup_spike():
    monitor = BackpressureMonitor(BackpressureConfig(warmup_batches=2))
    monitor.observe(0, load=3.0, queue_delay=5.0, batch_interval=1.0)
    monitor.observe(1, load=3.0, queue_delay=5.0, batch_interval=1.0)
    assert not monitor.triggered
    for i in range(2, 8):
        monitor.observe(i, load=0.5, queue_delay=0.0, batch_interval=1.0)
    assert not monitor.triggered


def test_monitor_stays_triggered():
    monitor = BackpressureMonitor(BackpressureConfig(warmup_batches=0))
    monitor.observe(0, load=0.1, queue_delay=9.0, batch_interval=1.0)
    assert monitor.observe(1, load=0.1, queue_delay=0.0, batch_interval=1.0)
    assert monitor.triggered_at == 0


def test_config_validation():
    with pytest.raises(ValueError):
        BackpressureConfig(max_queue_intervals=-1)
    with pytest.raises(ValueError):
        BackpressureConfig(max_mean_load=0.0)
    with pytest.raises(ValueError):
        BackpressureConfig(warmup_batches=-1)
