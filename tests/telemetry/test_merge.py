"""TelemetrySnapshot.merged: the per-worker → campaign aggregation."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.telemetry.recorder import Telemetry
from repro.telemetry.snapshot import TelemetrySnapshot


def _snap(telemetry, **meta):
    return TelemetrySnapshot.from_telemetry(telemetry, meta=meta)


class TestCounterAndAuditMerge:
    def test_counter_series_add(self):
        a, b = Telemetry(), Telemetry()
        a.metrics.counter("ops", "c").inc(3.0, op="read")
        a.metrics.counter("ops", "c").inc(1.0, op="write")
        b.metrics.counter("ops", "c").inc(4.0, op="read")
        merged = TelemetrySnapshot.merged([_snap(a), _snap(b)])
        assert merged.counter_value("ops", op="read") == 7.0
        assert merged.counter_value("ops", op="write") == 1.0
        assert merged.counter_value("ops") == 8.0

    def test_counter_only_in_one_snapshot(self):
        a, b = Telemetry(), Telemetry()
        a.metrics.counter("only_a", "c").inc(2.0)
        b.metrics.counter("only_b", "c").inc(5.0)
        merged = TelemetrySnapshot.merged([_snap(a), _snap(b)])
        assert merged.counter_value("only_a") == 2.0
        assert merged.counter_value("only_b") == 5.0

    def test_audit_totals_add_exactly(self):
        a, b = Telemetry(), Telemetry()
        a.audit.record(op="read", reason="granted", time=0.0, site=0, volume=100.0)
        a.audit.record(op="read", reason="no_quorum", time=0.0, site=1, volume=7.0)
        b.audit.record(op="read", reason="granted", time=0.0, site=0, volume=50.0)
        merged = TelemetrySnapshot.merged([_snap(a), _snap(b)])
        assert merged.audit_volume(reason="granted") == 150.0
        assert merged.audit_volume(reason="no_quorum") == 7.0
        assert merged.audit_availability() == pytest.approx(150.0 / 157.0)

    def test_audit_records_concatenate_and_overflow_adds(self):
        a, b = Telemetry(), Telemetry()
        a.audit.record(op="read", reason="granted", time=0.0, site=0)
        b.audit.record(op="write", reason="granted", time=1.0, site=1)
        sa, sb = _snap(a), _snap(b)
        sa.audit_overflow = 3
        sb.audit_overflow = 4
        merged = TelemetrySnapshot.merged([sa, sb])
        assert len(merged.audit_records) == 2
        assert merged.audit_overflow == 7

    def test_gauges_last_writer_wins(self):
        a, b = Telemetry(), Telemetry()
        a.metrics.gauge("depth", "g").set(1.0, worker=0)
        b.metrics.gauge("depth", "g").set(9.0, worker=0)
        merged = TelemetrySnapshot.merged([_snap(a), _snap(b)])
        assert merged.gauge_value("depth", worker=0) == 9.0


class TestHistogramMerge:
    def _observe(self, telemetry, values):
        for value in values:
            telemetry.metrics.histogram("lat", "h").observe(value, op="read")

    def test_moments_match_single_recorder(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(0.002, 2_000)
        reference = Telemetry()
        self._observe(reference, samples)
        shards = [Telemetry() for _ in range(4)]
        for i, value in enumerate(samples):
            self._observe(shards[i % 4], [value])
        merged = TelemetrySnapshot.merged([_snap(t) for t in shards])
        got = merged.histogram_series("lat")[0]
        want = _snap(reference).histogram_series("lat")[0]
        assert got["bucket_counts"] == want["bucket_counts"]
        assert got["count"] == want["count"]
        assert got["sum"] == pytest.approx(want["sum"], abs=1e-9)
        assert got["min"] == want["min"] and got["max"] == want["max"]
        assert got["mean"] == pytest.approx(want["mean"], abs=1e-12)
        assert got["stddev"] == pytest.approx(want["stddev"], abs=1e-9)

    def test_empty_side_changes_nothing(self):
        a = Telemetry()
        self._observe(a, [0.001, 0.002, 0.003, 0.004, 0.005])
        empty = TelemetrySnapshot(meta={"created_at": 0.0})
        (got,) = TelemetrySnapshot.merged([_snap(a), empty]).histogram_series("lat")
        (want,) = _snap(a).histogram_series("lat")
        assert got["stddev"] == pytest.approx(want["stddev"], rel=1e-9)
        assert {k: v for k, v in got.items() if k != "stddev"} == {
            k: v for k, v in want.items() if k != "stddev"}

    def test_bucket_layout_mismatch_rejected(self):
        a, b = Telemetry(), Telemetry()
        a.metrics.histogram("h", "x", buckets=(1.0, 2.0)).observe(1.5)
        b.metrics.histogram("h", "x", buckets=(1.0, 5.0)).observe(1.5)
        with pytest.raises(ReproError):
            TelemetrySnapshot.merged([_snap(a), _snap(b)])


class TestMergeMechanics:
    def test_merge_of_zero_snapshots_rejected(self):
        with pytest.raises(ReproError):
            TelemetrySnapshot.merged([])

    def test_spans_concatenate(self):
        a, b = Telemetry(), Telemetry()
        with a.spans.span("alpha"):
            pass
        with b.spans.span("beta"):
            pass
        merged = TelemetrySnapshot.merged([_snap(a), _snap(b)])
        names = [span["name"] for span in merged.spans]
        assert "alpha" in names and "beta" in names

    def test_meta_counts_sources(self):
        snaps = [_snap(Telemetry()) for _ in range(3)]
        merged = TelemetrySnapshot.merged(snaps, meta={"mode": "test"})
        assert merged.meta["merged_from"] == 3
        assert merged.meta["mode"] == "test"
        assert merged.meta["created_at"] >= snaps[0].meta["created_at"]

    def test_pairwise_merge_wrapper(self):
        a, b = Telemetry(), Telemetry()
        a.metrics.counter("n", "c").inc(1.0)
        b.metrics.counter("n", "c").inc(2.0)
        merged = _snap(a).merge(_snap(b))
        assert merged.counter_value("n") == 3.0

    def test_merged_snapshot_round_trips_through_records(self):
        a, b = Telemetry(), Telemetry()
        a.metrics.counter("n", "c").inc(1.0, op="read")
        a.metrics.histogram("lat", "h").observe(0.01)
        b.audit.record(op="read", reason="granted", time=0.0, site=0)
        merged = TelemetrySnapshot.merged([_snap(a), _snap(b)])
        round_tripped = TelemetrySnapshot.from_records(list(merged.to_records()))
        assert round_tripped.counter_value("n", op="read") == 1.0
        assert round_tripped.audit_totals == merged.audit_totals
