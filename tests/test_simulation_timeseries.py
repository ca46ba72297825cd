"""Unit tests for the time-series recording utilities."""

from __future__ import annotations

import pytest

from repro.simulation import TimeSeries, TimeSeriesBundle


def test_record_and_query_basic_statistics():
    series = TimeSeries("latency")
    for i in range(1, 11):
        series.record(float(i), float(i))
    summary = series.summary()
    assert summary.count == 10
    assert summary.mean == pytest.approx(5.5)
    assert summary.minimum == 1.0
    assert summary.maximum == 10.0
    assert series.percentile(50) == pytest.approx(5.5)
    assert series.mean() == pytest.approx(5.5)


def test_out_of_order_samples_rejected():
    series = TimeSeries("x")
    series.record(2.0, 1.0)
    with pytest.raises(ValueError):
        series.record(1.0, 1.0)


def test_window_slicing_is_half_open():
    series = TimeSeries("x")
    for t in range(10):
        series.record(float(t), float(t))
    window = series.window(2.0, 5.0)
    assert list(window.values) == [2.0, 3.0, 4.0]


def test_last_and_empty_defaults():
    series = TimeSeries("x")
    assert series.last(default=7.0) == 7.0
    assert series.summary().count == 0
    assert series.percentile(95) == 0.0
    assert series.mean() == 0.0
    series.record(1.0, 3.0)
    assert series.last() == 3.0


def test_integrate_step_function():
    series = TimeSeries("nodes")
    series.record(0.0, 3.0)
    series.record(10.0, 5.0)
    series.record(20.0, 5.0)
    # 3 nodes for 10 s + 5 nodes for 10 s = 80 node-seconds.
    assert series.integrate() == pytest.approx(80.0)


def test_bundle_lazily_creates_series():
    bundle = TimeSeriesBundle()
    bundle.record("a", 1.0, 2.0)
    bundle.record("a", 2.0, 3.0)
    bundle.record("b", 1.0, 5.0)
    assert set(bundle._series) == {"a", "b"}
    assert "a" in bundle
    assert bundle["a"].mean() == pytest.approx(2.5)
    assert bundle.get("missing") is None
    assert bundle["b"].summary().count == 1
