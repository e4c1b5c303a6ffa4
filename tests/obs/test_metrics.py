"""Metrics registry: instruments, exact histogram merges, snapshots."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import AnalysisError
from repro.obs import metrics
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_counts(self):
        counter = metrics.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_get_or_create_returns_same_instrument(self):
        assert metrics.counter("c") is metrics.counter("c")

    def test_negative_increment_rejected(self):
        with pytest.raises(AnalysisError, match="cannot decrease"):
            metrics.counter("c").inc(-1)


class TestCounterDeltas:
    def test_reads_how_far_the_block_moved_each_counter(self):
        metrics.counter("moved").inc(3)
        with metrics.counter_deltas("moved", "untouched") as moved:
            metrics.counter("moved").inc(2)
            metrics.counter("other").inc(7)
        assert moved == {"moved": 2, "untouched": 0}
        assert "untouched" not in metrics.get_registry().snapshot()[
            "counters"]

    def test_filled_when_the_block_raises(self):
        with pytest.raises(RuntimeError):
            with metrics.counter_deltas("moved") as moved:
                metrics.counter("moved").inc()
                raise RuntimeError("block failed")
        assert moved == {"moved": 1}


class TestGauge:
    def test_last_write_wins(self):
        gauge = metrics.gauge("g")
        gauge.set(1)
        gauge.set(2.5)
        assert gauge.value == 2.5


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = Histogram("h", boundaries=(1.0, 10.0))
        hist.observe(0.5)    # <= 1.0
        hist.observe(5.0)    # <= 10.0
        hist.observe(100.0)  # overflow
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.sum == 105.5

    def test_mean(self):
        hist = Histogram("h", boundaries=(1.0,))
        assert hist.mean == 0.0
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.mean == 3.0

    def test_boundaries_must_increase(self):
        with pytest.raises(AnalysisError, match="strictly"):
            Histogram("h", boundaries=(2.0, 1.0))
        with pytest.raises(AnalysisError, match="strictly"):
            Histogram("h", boundaries=(1.0, 1.0))
        with pytest.raises(AnalysisError, match=">= 1 boundary"):
            Histogram("h", boundaries=())

    def test_merge_is_exact_integer_addition(self):
        a = Histogram("h", boundaries=(1.0, 10.0))
        b = Histogram("h", boundaries=(1.0, 10.0))
        for value in (0.5, 2.0, 2.0, 50.0):
            a.observe(value)
        for value in (0.1, 99.0):
            b.observe(value)
        a.merge(b.boundaries, b.counts, b.count, b.sum)
        # Equal, bucket for bucket, to one histogram seeing all values.
        one = Histogram("h", boundaries=(1.0, 10.0))
        for value in (0.5, 2.0, 2.0, 50.0, 0.1, 99.0):
            one.observe(value)
        assert a.counts == one.counts
        assert a.count == one.count
        assert a.sum == pytest.approx(one.sum)

    def test_merge_rejects_different_boundaries(self):
        a = Histogram("h", boundaries=(1.0, 10.0))
        with pytest.raises(AnalysisError, match="cannot merge"):
            a.merge((1.0, 20.0), [0, 0, 0], 0, 0.0)

    def test_reregistering_with_other_boundaries_rejected(self):
        metrics.histogram("h", boundaries=(1.0,))
        with pytest.raises(AnalysisError, match="already exists"):
            metrics.histogram("h", boundaries=(2.0,))

    def test_default_buckets_span_ms_to_minute(self):
        assert DEFAULT_TIME_BUCKETS[0] == 0.001
        assert DEFAULT_TIME_BUCKETS[-1] == 60.0


class TestRegistry:
    def test_cross_kind_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(AnalysisError, match="another instrument kind"):
            registry.gauge("n")
        with pytest.raises(AnalysisError, match="another instrument kind"):
            registry.histogram("n")

    def test_snapshot_is_picklable_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", boundaries=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["counts"] == [1, 0]

    def test_drain_resets(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        snap = registry.drain()
        assert snap["counters"] == {"c": 1}
        assert registry.snapshot()["counters"] == {}

    def test_merge_mirrors_worker_channel(self):
        # The executor's exact flow: worker drains, parent merges.
        worker = MetricsRegistry()
        worker.counter("trials_total").inc(3)
        worker.histogram("trial_seconds", boundaries=(1.0,)).observe(0.5)
        parent = MetricsRegistry()
        parent.counter("trials_total").inc(1)
        parent.histogram("trial_seconds", boundaries=(1.0,)).observe(2.0)
        parent.merge(worker.drain())
        assert parent.counter("trials_total").value == 4
        hist = parent.histogram("trial_seconds", boundaries=(1.0,))
        assert hist.counts == [1, 1]
        assert hist.count == 2

    def test_merge_into_empty_registry_creates_instruments(self):
        worker = MetricsRegistry()
        worker.counter("c").inc(7)
        worker.gauge("g").set(3.0)
        parent = MetricsRegistry()
        parent.merge(worker.snapshot())
        assert parent.counter("c").value == 7
        assert parent.gauge("g").value == 3.0

    def test_module_registry_reset(self):
        metrics.counter("c").inc()
        metrics.reset_registry()
        assert metrics.get_registry().snapshot()["counters"] == {}
