"""Unit tests for the metric primitives (counters, gauges, histograms)."""

import math

import numpy as np
import pytest

from repro.errors import ReproError
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labeled_series_are_independent(self):
        c = Counter("ops")
        c.inc(op="read")
        c.inc(3, op="write")
        assert c.value(op="read") == 1
        assert c.value(op="write") == 3
        assert c.total() == 4

    def test_label_order_irrelevant(self):
        c = Counter("x")
        c.inc(a=1, b=2)
        c.inc(b=2, a=1)
        assert c.value(a=1, b=2) == 2

    def test_negative_rejected(self):
        c = Counter("x")
        with pytest.raises(ReproError):
            c.inc(-1)

    def test_missing_series_is_zero(self):
        assert Counter("x").value(op="read") == 0.0

    def test_bound_series_is_the_labelled_series(self):
        c = Counter("ops")
        reads = c.labels(outcome="granted", op="read")
        reads.inc()
        reads.inc(2)
        c.inc(op="read", outcome="granted")
        assert c.series() == {(("op", "read"), ("outcome", "granted")): 4.0}
        with pytest.raises(ReproError):
            reads.inc(-1)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("depth")
        g.set(5)
        g.add(-2)
        assert g.value() == 3

    def test_missing_is_nan(self):
        assert math.isnan(Gauge("x").value())


class TestHistogram:
    def test_bucket_counts_cumulate_correctly(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        series = h.series()[()]
        assert series.bucket_counts == [1, 2, 1, 1]  # last is +Inf
        assert series.count == 5
        assert series.min == 0.05
        assert series.max == 50.0

    def test_mean_and_stddev_match_numpy(self):
        rng = np.random.default_rng(7)
        data = rng.exponential(0.3, size=500)
        h = Histogram("lat")
        for v in data:
            h.observe(v)
        series = h.series()[()]
        assert series.mean() == pytest.approx(float(np.mean(data)))
        assert series.stddev() == pytest.approx(float(np.std(data)), rel=1e-6)

    def test_per_label_series(self):
        h = Histogram("lat")
        h.observe(1.0, op="read")
        h.observe(2.0, op="write")
        assert h.count(op="read") == 1
        assert h.sum(op="write") == 2.0

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(ReproError):
            Histogram("lat", buckets=())


class TestObserveMany:
    BUCKETS = (0.25, 0.5, 1.0, 2.0, 4.0)

    def _pair(self, values):
        one = Histogram("lat", buckets=self.BUCKETS)
        for value in values:
            one.observe(value, op="read")
        many = Histogram("lat", buckets=self.BUCKETS)
        many.observe_many(np.asarray(values), op="read")
        return one.series()[(("op", "read"),)], many.series()[(("op", "read"),)]

    def test_equals_repeated_observe(self):
        rng = np.random.default_rng(3)
        # Values exactly on every bound, below the first, above the last.
        values = list(self.BUCKETS) + [0.0, 7.5] + list(rng.exponential(1.0, 500))
        one, many = self._pair(values)
        assert many.bucket_counts == one.bucket_counts
        assert (many.count, many.min, many.max) == (one.count, one.min, one.max)
        assert many.sum == pytest.approx(one.sum, rel=1e-12)
        assert many.sum_sq == pytest.approx(one.sum_sq, rel=1e-12)

    def test_bound_values_land_in_their_own_bucket(self):
        _, many = self._pair(list(self.BUCKETS))
        assert many.bucket_counts == [1, 1, 1, 1, 1, 0]

    def test_accumulates_across_calls(self):
        h = Histogram("lat", buckets=self.BUCKETS)
        h.observe_many([0.1, 3.0])
        h.observe_many([9.0])
        series = h.series()[()]
        assert series.bucket_counts == [1, 0, 0, 0, 1, 1]
        assert (series.count, series.min, series.max) == (3, 0.1, 9.0)

    def test_empty_batch_creates_no_series(self):
        h = Histogram("lat", buckets=self.BUCKETS)
        h.observe_many(np.empty(0))
        assert h.series() == {}

    def test_default_buckets_and_observe_mix(self):
        # Every histogram takes batches; single and batched observations
        # land in the same series.
        h = MetricsRegistry().histogram("lat")
        h.observe(2e-6)
        h.observe_many([2e-6, 0.2])
        series = h.series()[()]
        assert series.count == 3
        assert series.bucket_counts[1] == 2 and series.bucket_counts[6] == 1

    def test_marker_free_snapshot_round_trip(self):
        from repro.telemetry.recorder import Telemetry
        from repro.telemetry.snapshot import TelemetrySnapshot

        tels = [Telemetry(), Telemetry()]
        for tel, values in zip(tels, ([0.1, 0.3], [5.0])):
            tel.metrics.histogram("lat", "h",
                                  buckets=self.BUCKETS).observe_many(values)
        snaps = [tel.snapshot() for tel in tels]
        back = TelemetrySnapshot.from_records(list(snaps[0].to_records()))
        merged = TelemetrySnapshot.merged(snaps)
        for snap in (snaps[0], back, merged, TelemetrySnapshot.merged(snaps[:1])):
            (series,) = snap.histogram_series("lat")
            assert "quantiles" not in series
        (pooled,) = merged.histogram_series("lat")
        assert pooled["count"] == 3 and pooled["max"] == 5.0


class TestRegistry:
    def test_idempotent_registration(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ReproError):
            reg.gauge("a")

    def test_iteration_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert [m.name for m in reg] == ["a", "b"]
        assert len(reg) == 2
