"""Chrome-trace export round-trip and span-tree analysis helpers."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.telemetry.export import (
    critical_path,
    load_snapshot_jsonl,
    span_tree_digest,
    to_chrome_trace,
    top_phases,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.recorder import Telemetry
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.telemetry.spans import SpanRecord

_SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def nested_records():
    """A deterministic three-level tree recorded through a live collector."""
    tel = Telemetry()
    with tel.span("root", kind="demo"):
        with tel.span("child.a"):
            with tel.span("leaf"):
                sum(range(50_000))
        with tel.span("child.b"):
            pass
    return list(tel.spans.records)


class TestChromeTrace:
    def test_valid_json_and_shape(self, nested_records):
        trace = to_chrome_trace(nested_records,
                                phases=[{"name": "p", "count": 1,
                                         "wall": 0.1, "cpu": 0.1}],
                                meta={"target": "demo"})
        payload = json.loads(json.dumps(trace))
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["target"] == "demo"
        assert payload["otherData"]["phases"][0]["name"] == "p"
        kinds = {event["ph"] for event in payload["traceEvents"]}
        assert kinds == {"M", "X"}

    def test_monotone_ts_per_lane(self, nested_records):
        trace = to_chrome_trace(nested_records)
        by_tid = {}
        for event in trace["traceEvents"]:
            if event["ph"] == "X":
                by_tid.setdefault(event["tid"], []).append(event["ts"])
        assert by_tid
        for stamps in by_tid.values():
            assert stamps == sorted(stamps)

    def test_children_nest_inside_parents(self, nested_records):
        trace = to_chrome_trace(nested_records)
        spans = {e["args"]["span_id"]: e
                 for e in trace["traceEvents"] if e["ph"] == "X"}
        nested = 0
        for event in spans.values():
            parent = spans.get(event["args"]["parent_id"])
            if parent is None:
                continue
            nested += 1
            assert event["ts"] >= parent["ts"] - 0.5
            assert (event["ts"] + event["dur"]
                    <= parent["ts"] + parent["dur"] + 0.5)
            assert event["tid"] == parent["tid"]
        assert nested == 3  # child.a, child.b, leaf

    def test_worker_epoch_subtree_gets_its_own_lane(self, nested_records,
                                                    tmp_path):
        # A re-parented worker subtree is timed against the worker's
        # clock epoch: its start can precede the dispatcher parent's.
        # It must head its own tid lane (and still validate) instead of
        # mis-nesting on the dispatcher's timeline.
        root = next(r for r in nested_records if r.name == "root")
        skewed = list(nested_records) + [
            SpanRecord(99, root.span_id, "worker.batch", {},
                       root.start + 10_000.0, 0.5, 0.5),
            SpanRecord(100, 99, "worker.inner", {},
                       root.start + 10_000.1, 0.1, 0.1),
        ]
        trace = to_chrome_trace(skewed)
        by_span = {e["args"]["span_id"]: e
                   for e in trace["traceEvents"] if e["ph"] == "X"}
        assert by_span[99]["tid"] != by_span[root.span_id]["tid"]
        assert by_span[100]["tid"] == by_span[99]["tid"]  # nests in 99

        path = tmp_path / "skewed.trace.json"
        write_chrome_trace(path, skewed)
        validate_trace = _load_script("validate_trace").validate_trace
        assert validate_trace(path) == []

    def test_every_lane_named(self, nested_records):
        trace = to_chrome_trace(nested_records)
        named = {e["tid"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        used = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert used <= named

    def test_written_file_passes_the_ci_validator(self, nested_records,
                                                  tmp_path):
        path = tmp_path / "demo.trace.json"
        write_chrome_trace(path, nested_records,
                           phases=[{"name": "p", "count": 1,
                                    "wall": 0.1, "cpu": 0.1}])
        validate_trace = _load_script("validate_trace").validate_trace
        assert validate_trace(path) == []

    def test_validator_flags_broken_traces(self, nested_records, tmp_path):
        validate_trace = _load_script("validate_trace").validate_trace
        assert validate_trace(tmp_path / "missing.json")  # not found

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert any("invalid JSON" in p for p in validate_trace(bad))

        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"traceEvents": []}))
        assert any("missing or empty" in p for p in validate_trace(empty))

        # A child escaping its parent's interval must be caught.
        trace = to_chrome_trace(nested_records)
        for event in trace["traceEvents"]:
            if event["ph"] == "X" and event["args"]["parent_id"] is not None:
                event["dur"] = 1e12
                break
        escaped = tmp_path / "escaped.json"
        escaped.write_text(json.dumps(trace))
        assert any("escapes parent" in p for p in validate_trace(escaped))


class TestSpanJsonl:
    def test_round_trip(self, nested_records, tmp_path):
        # Spans travel in the one snapshot stream (``events.jsonl``).
        snapshot = TelemetrySnapshot(
            meta={"created_at": 0.0},
            spans=[record.to_dict() for record in nested_records])
        loaded = load_snapshot_jsonl(write_jsonl(snapshot, tmp_path / "e.jsonl"))
        rebuilt = [SpanRecord.from_dict(span) for span in loaded.spans]
        assert rebuilt == nested_records


class TestAnalysis:
    def test_digest_ignores_timings(self, nested_records):
        shifted = [
            SpanRecord(r.span_id, r.parent_id, r.name, r.attrs,
                       r.start + 5.0, r.wall * 2.0, r.cpu)
            for r in nested_records
        ]
        assert span_tree_digest(shifted) == span_tree_digest(nested_records)

    def test_digest_sees_structure(self, nested_records):
        renamed = [
            SpanRecord(r.span_id, r.parent_id, "other" if r.name == "leaf"
                       else r.name, r.attrs, r.start, r.wall, r.cpu)
            for r in nested_records
        ]
        assert span_tree_digest(renamed) != span_tree_digest(nested_records)

    def test_critical_path_descends_max_wall(self, nested_records):
        path = critical_path(nested_records)
        names = [r.name for r in path]
        assert names[0] == "root"
        # child.a contains the busy leaf, so it dominates child.b.
        assert names[1] == "child.a"
        assert names[-1] == "leaf"

    def test_critical_path_empty(self):
        assert critical_path([]) == []

    def test_top_phases_ranked_by_wall(self):
        phases = [
            {"name": "a", "count": 1, "wall": 0.1, "cpu": 0.1},
            {"name": "b", "count": 1, "wall": 0.9, "cpu": 0.1},
            {"name": "c", "count": 1, "wall": 0.5, "cpu": 0.1},
        ]
        assert [p["name"] for p in top_phases(phases, limit=2)] == ["b", "c"]
