"""Phases on the recorder: accumulation, merging, and the null-object contract."""

import pytest

from repro.telemetry.recorder import NULL, Telemetry
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.telemetry.spans import NULL_SPAN


def _phases(*rows):
    return TelemetrySnapshot(meta={"created_at": 0.0}, phases=list(rows))


class TestPhaseProfiler:
    def test_accumulates_count_wall_cpu(self):
        tel = Telemetry()
        for _ in range(3):
            with tel.phase("work"):
                sum(range(1000))
        [entry] = tel.snapshot().phases
        assert entry["name"] == "work"
        assert entry["count"] == 3
        assert entry["wall"] >= 0.0
        assert entry["cpu"] >= 0.0

    def test_snapshot_sorted_by_name(self):
        tel = Telemetry()
        for name in ("z", "a", "m"):
            with tel.phase(name):
                pass
        assert [e["name"] for e in tel.snapshot().phases] == ["a", "m", "z"]

    def test_exception_still_accounted(self):
        tel = Telemetry()
        with pytest.raises(ValueError):
            with tel.phase("boom"):
                raise ValueError("x")
        [entry] = tel.snapshot().phases
        assert entry["count"] == 1


class TestNullProfiler:
    def test_disabled_and_inert(self):
        assert not NULL.enabled
        assert Telemetry().enabled
        with NULL.phase("ignored"):
            pass
        assert NULL.snapshot() is None

    def test_shared_phase_object(self):
        # The disabled path must not allocate per call: every phase is the
        # one shared no-op span.
        assert NULL.phase("a") is NULL.phase("b") is NULL_SPAN


class TestMergePhaseLists:
    def test_sums_by_name(self):
        a = _phases({"name": "x", "count": 2, "wall": 1.0, "cpu": 0.5})
        b = _phases({"name": "x", "count": 3, "wall": 0.5, "cpu": 0.25},
                    {"name": "y", "count": 1, "wall": 2.0, "cpu": 2.0})
        merged = TelemetrySnapshot.merged([a, b]).phases
        assert [e["name"] for e in merged] == ["x", "y"]
        x, y = merged
        assert x["count"] == 5
        assert x["wall"] == pytest.approx(1.5)
        assert x["cpu"] == pytest.approx(0.75)
        assert y["count"] == 1

    def test_empty(self):
        assert TelemetrySnapshot.merged([_phases()]).phases == []
        assert TelemetrySnapshot.merged([_phases(), _phases()]).phases == []


class TestSnapshotRoundTrip:
    def test_phases_survive_jsonl_round_trip(self):
        tel = Telemetry()
        for name in ("enum.label", "mc.sample", "mc.sample"):
            with tel.phase(name):
                pass
        snapshot = tel.snapshot()
        records = list(snapshot.to_records())
        rebuilt = TelemetrySnapshot.from_records(records)
        assert rebuilt.phases == snapshot.phases
        assert {e["name"]: e["count"] for e in rebuilt.phases} == {
            "enum.label": 1, "mc.sample": 2}

    def test_merged_snapshots_sum_phases(self):
        snapshots = [
            _phases({"name": "serve.attempt", "count": 1, "wall": wall,
                     "cpu": wall / 2})
            for wall in (1.0, 2.0)
        ]
        merged = TelemetrySnapshot.merged(snapshots)
        [entry] = merged.phases
        assert entry["count"] == 2
        assert entry["wall"] == pytest.approx(3.0)
