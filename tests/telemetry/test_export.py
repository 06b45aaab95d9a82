"""Exporter tests: Prometheus text, JSONL round trip, and the report."""

import pytest

from repro.errors import ReproError
from repro.telemetry.export import (
    load_snapshot_jsonl,
    render_report,
    to_jsonl_lines,
    to_prometheus,
    write_jsonl,
)
from repro.telemetry.recorder import Telemetry
from repro.telemetry.snapshot import TelemetrySnapshot


@pytest.fixture
def telemetry() -> Telemetry:
    tel = Telemetry()
    tel.metrics.counter("repro_test_ops_total", "operations").inc(3, op="read")
    tel.metrics.counter("repro_test_ops_total").inc(1, op="write")
    tel.metrics.gauge("repro_test_depth", "queue depth").set(7)
    hist = tel.metrics.histogram("repro_test_seconds", "latency")
    for v in (0.0005, 0.02, 0.3):
        hist.observe(v)
    with tel.span("unit.work", stage=1):
        pass
    tel.start_batch(0)
    tel.audit.record(1.0, "read", "granted", volume=5.0, site=0)
    tel.audit.record(2.0, "read", "no_quorum", volume=2.0, site=1)
    tel.audit.record(2.0, "write", "site_down", volume=1.0, site=2)
    return tel


@pytest.fixture
def snapshot(telemetry) -> TelemetrySnapshot:
    return telemetry.snapshot(meta={"protocol": "unit-test"})


class TestPrometheus:
    def test_counter_series(self, snapshot):
        text = to_prometheus(snapshot)
        assert "# TYPE repro_test_ops_total counter" in text
        assert 'repro_test_ops_total{op="read"} 3' in text
        assert 'repro_test_ops_total{op="write"} 1' in text

    def test_gauge(self, snapshot):
        assert "repro_test_depth 7" in to_prometheus(snapshot)

    def test_histogram_buckets_cumulative(self, snapshot):
        text = to_prometheus(snapshot)
        assert "# TYPE repro_test_seconds histogram" in text
        assert 'repro_test_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_test_seconds_count 3" in text
        # Cumulative counts never decrease down the bucket list.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_test_seconds_bucket")
        ]
        assert counts == sorted(counts)

    def test_span_histogram_exported(self, snapshot):
        assert 'repro_span_seconds_count{name="unit.work"} 1' in to_prometheus(snapshot)


class TestJsonlRoundTrip:
    def test_round_trip_preserves_values(self, snapshot, tmp_path):
        path = write_jsonl(snapshot, tmp_path / "events.jsonl")
        loaded = load_snapshot_jsonl(path)
        assert loaded.meta["protocol"] == "unit-test"
        assert loaded.counter_value("repro_test_ops_total", op="read") == 3
        assert loaded.counter_value("repro_test_ops_total") == 4
        assert loaded.gauge_value("repro_test_depth") == 7
        (series,) = loaded.histogram_series("repro_test_seconds")
        assert series["count"] == 3
        assert loaded.audit_volume() == 8.0
        assert loaded.audit_volume(reason="granted") == 5.0
        assert loaded.denials_by_reason() == {"no_quorum": 2.0, "site_down": 1.0}
        assert [s["name"] for s in loaded.spans] == ["unit.work"]

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(ReproError, match="not found"):
            load_snapshot_jsonl(tmp_path / "absent.jsonl")

    def test_corrupt_line_reports_line_number(self, snapshot, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = to_jsonl_lines(snapshot)
        lines.insert(1, "{not json")
        path.write_text("\n".join(lines))
        with pytest.raises(ReproError, match=":2:"):
            load_snapshot_jsonl(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "meta", "schema": 99, "meta": {}}\n')
        with pytest.raises(ReproError, match="schema 99"):
            load_snapshot_jsonl(path)

    def test_stream_without_meta_rejected(self):
        with pytest.raises(ReproError, match="no meta"):
            TelemetrySnapshot.from_records([{"type": "counter", "name": "x",
                                             "help": "", "series": []}])

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ReproError, match="unknown"):
            TelemetrySnapshot.from_records([{"type": "meta", "schema": 1,
                                             "meta": {}},
                                            {"type": "mystery"}])


class TestReport:
    def test_report_sections(self, snapshot):
        text = render_report(snapshot)
        assert "quorum-decision audit" in text
        assert "ACC = 0.6250" in text  # 5 granted / 8 submitted
        assert "no_quorum" in text and "site_down" in text
        assert "unit.work" in text
        assert "repro_test_ops_total" in text

    def test_denial_shares_sum_to_denied(self, snapshot):
        denied = snapshot.audit_volume() - snapshot.audit_volume(reason="granted")
        assert sum(snapshot.denials_by_reason().values()) == denied
