"""TelemetrySnapshot: a frozen, serializable capture of one run.

The live :class:`~repro.telemetry.recorder.Telemetry` object is mutable
and full of estimator state; the snapshot is plain data — dicts, lists,
floats — so it can ride on a :class:`~repro.simulation.runner.
SimulationResult`, stream to JSON-lines, render to Prometheus text, and
round-trip back for ``repro metrics`` without importing any simulator
machinery.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import ReproError
from repro.telemetry.audit import GRANTED

__all__ = ["TelemetrySnapshot"]

#: Serialization format version for the JSON-lines stream. v2 adds
#: ``phase`` records (PR 7); v1 streams are still readable.
SCHEMA_VERSION = 2
_READABLE_SCHEMAS = (1, 2)

_NUMBER = (int, float)
_TYPE_NAMES = {int: "an integer", _NUMBER: "a number", str: "a string",
               list: "a list", dict: "an object",
               (int, type(None)): "an integer or null"}

#: What a reader needs of each record type: ``(required, optional)``
#: fields and the type each value must have. Every field that is summed,
#: merged or printed is here, so a malformed stream fails on load with
#: its ``path:line`` instead of deep inside a report.
_FIELDS = {
    "meta": ({"schema": int},
             {"meta": dict, "span_overflow": int, "audit_overflow": int}),
    "counter": ({"name": str, "series": list}, {}),
    "gauge": ({"name": str, "series": list}, {}),
    "histogram": ({"name": str, "buckets": list, "series": list}, {}),
    "span": ({"span_id": int, "name": str, "start": _NUMBER,
              "wall": _NUMBER, "cpu": _NUMBER},
             {"parent_id": (int, type(None)), "attrs": dict}),
    "phase": ({"name": str, "count": int, "wall": _NUMBER, "cpu": _NUMBER},
              {}),
    "audit": ({"op": str, "reason": str}, {}),
    "audit_total": ({"op": str, "reason": str, "volume": _NUMBER}, {}),
}
#: The same for each entry of a metric record's ``series`` list.
_SERIES_FIELDS = {
    "counter": {"labels": dict, "value": _NUMBER},
    "gauge": {"labels": dict, "value": _NUMBER},
    "histogram": {"labels": dict, "bucket_counts": list, "count": int,
                  "sum": _NUMBER},
}
#: The snapshot list each non-meta record type is appended to.
_COLLECTIONS = {
    "counter": "counters", "gauge": "gauges", "histogram": "histograms",
    "span": "spans", "phase": "phases", "audit": "audit_records",
    "audit_total": "audit_totals",
}


def _labels_dict(key) -> Dict[str, str]:
    return {k: v for k, v in key}


@dataclass
class TelemetrySnapshot:
    """Plain-data capture of metrics, spans, and the audit log."""

    meta: Dict[str, object] = field(default_factory=dict)
    counters: List[Dict[str, object]] = field(default_factory=list)
    gauges: List[Dict[str, object]] = field(default_factory=list)
    histograms: List[Dict[str, object]] = field(default_factory=list)
    spans: List[Dict[str, object]] = field(default_factory=list)
    span_overflow: int = 0
    phases: List[Dict[str, object]] = field(default_factory=list)
    audit_records: List[Dict[str, object]] = field(default_factory=list)
    audit_totals: List[Dict[str, object]] = field(default_factory=list)
    audit_overflow: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_telemetry(cls, telemetry, meta: Optional[dict] = None
                       ) -> "TelemetrySnapshot":
        from repro.telemetry.metrics import Counter, Gauge, Histogram

        snap = cls(meta={"created_at": _time.time(), **(meta or {})})
        metrics = list(telemetry.metrics)
        # The span-duration histogram is aggregated alongside user metrics.
        metrics.append(telemetry.spans.seconds)
        for metric in metrics:
            if isinstance(metric, Counter):
                snap.counters.append(_scalar_metric(metric))
            elif isinstance(metric, Gauge):
                snap.gauges.append(_scalar_metric(metric))
            elif isinstance(metric, Histogram):
                snap.histograms.append(_histogram_metric(metric))
        snap.spans = [record.to_dict() for record in telemetry.spans.records]
        snap.span_overflow = telemetry.spans.overflowed
        snap.phases = _phase_rows(telemetry._phases)
        snap.audit_records = [record.to_dict() for record in telemetry.audit.records]
        snap.audit_totals = telemetry.audit.totals_as_dicts()
        snap.audit_overflow = telemetry.audit.overflowed
        return snap

    # ------------------------------------------------------------------
    # Merging (parallel batch fan-out)
    # ------------------------------------------------------------------
    @classmethod
    def merged(cls, snapshots: List["TelemetrySnapshot"],
               meta: Optional[dict] = None) -> "TelemetrySnapshot":
        """Combine per-worker snapshots into one (DESIGN.md §8).

        Callers pass snapshots in batch-index order; the merge is
        deterministic given that order. Semantics per record type:

        - **counters** — per-label-set values add; audit totals likewise,
          so reconciliation invariants (ACC == granted/submitted) survive.
        - **gauges** — point-in-time values: the last snapshot holding a
          series wins (workers set disjoint series in practice).
        - **histograms** — bucket counts add, ``count``/``sum`` add,
          ``min``/``max`` combine, and stddev is recomputed from pooled
          second moments (``sum_sq`` reconstructed per side from
          ``stddev``/``mean``/``count``).
        - **spans / audit records** — concatenate; overflow counts add.
        - **phases** — (count, wall, cpu) add per phase name.
        """
        if not snapshots:
            raise ReproError("cannot merge zero telemetry snapshots")
        snap = cls(meta={
            "created_at": max(float(s.meta.get("created_at", 0.0)) for s in snapshots),
            "merged_from": len(snapshots),
            **(meta or {}),
        })
        snap.counters = _merge_scalar([s.counters for s in snapshots], add=True)
        snap.gauges = _merge_scalar([s.gauges for s in snapshots], add=False)
        snap.histograms = _merge_histograms([s.histograms for s in snapshots])
        phases: Dict[str, List[float]] = {}
        for source in snapshots:
            for entry in source.phases:
                slot = phases.setdefault(str(entry["name"]), [0, 0.0, 0.0])
                slot[0] += int(entry["count"])
                slot[1] += float(entry["wall"])
                slot[2] += float(entry["cpu"])
        snap.phases = _phase_rows(phases)
        for source in snapshots:
            snap.spans.extend(source.spans)
            snap.span_overflow += source.span_overflow
            snap.audit_records.extend(source.audit_records)
            snap.audit_overflow += source.audit_overflow
        totals: Dict[tuple, float] = {}
        for source in snapshots:
            for entry in source.audit_totals:
                key = (entry["op"], entry["reason"])
                totals[key] = totals.get(key, 0.0) + float(entry["volume"])
        snap.audit_totals = [
            {"op": op, "reason": reason, "volume": volume}
            for (op, reason), volume in sorted(totals.items())
        ]
        return snap

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Pairwise convenience wrapper around :meth:`merged`."""
        return TelemetrySnapshot.merged([self, other])

    # ------------------------------------------------------------------
    # Metric lookups (reports and tests)
    # ------------------------------------------------------------------
    def _find(self, collection: List[Dict[str, object]], name: str
              ) -> Optional[Dict[str, object]]:
        for metric in collection:
            if metric["name"] == name:
                return metric
        return None

    def counter_value(self, name: str, **labels: object) -> float:
        """Value of one counter series (0 when absent); no labels = sum."""
        metric = self._find(self.counters, name)
        if metric is None:
            return 0.0
        if not labels:
            return sum(s["value"] for s in metric["series"])
        want = {k: str(v) for k, v in labels.items()}
        return sum(
            s["value"]
            for s in metric["series"]
            if all(s["labels"].get(k) == v for k, v in want.items())
        )

    def gauge_value(self, name: str, **labels: object) -> float:
        metric = self._find(self.gauges, name)
        if metric is None:
            return math.nan
        want = {k: str(v) for k, v in labels.items()}
        for series in metric["series"]:
            if series["labels"] == want:
                return series["value"]
        return math.nan

    def histogram_series(self, name: str) -> List[Dict[str, object]]:
        metric = self._find(self.histograms, name)
        return list(metric["series"]) if metric else []

    # ------------------------------------------------------------------
    # Audit views
    # ------------------------------------------------------------------
    def audit_volume(self, op: Optional[str] = None,
                     reason: Optional[str] = None) -> float:
        return sum(
            entry["volume"]
            for entry in self.audit_totals
            if (op is None or entry["op"] == op)
            and (reason is None or entry["reason"] == reason)
        )

    def denials_by_reason(self, op: Optional[str] = None) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for entry in self.audit_totals:
            if entry["reason"] == GRANTED:
                continue
            if op is None or entry["op"] == op:
                out[entry["reason"]] = out.get(entry["reason"], 0.0) + entry["volume"]
        return out

    def audit_availability(self) -> float:
        submitted = self.audit_volume()
        return self.audit_volume(reason=GRANTED) / submitted if submitted > 0 else 0.0

    # ------------------------------------------------------------------
    # JSON-lines round trip
    # ------------------------------------------------------------------
    def to_records(self) -> Iterator[Dict[str, object]]:
        """Typed record stream: one dict per JSON line."""
        yield {
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "meta": self.meta,
            "span_overflow": self.span_overflow,
            "audit_overflow": self.audit_overflow,
        }
        for kind, collection in (
            ("counter", self.counters),
            ("gauge", self.gauges),
            ("histogram", self.histograms),
        ):
            for metric in collection:
                yield {"type": kind, **metric}
        for span in self.spans:
            yield {"type": "span", **span}
        for phase in self.phases:
            yield {"type": "phase", **phase}
        for record in self.audit_records:
            yield {"type": "audit", **record}
        for total in self.audit_totals:
            yield {"type": "audit_total", **total}

    @classmethod
    def from_records(cls, records: Iterable[object],
                     locations: Optional[Sequence[str]] = None
                     ) -> "TelemetrySnapshot":
        """Rebuild a snapshot from :meth:`to_records` output.

        This is where outside input enters the package, so each record is
        checked against :data:`_FIELDS`; a bad one raises
        :class:`ReproError` naming ``locations[i]`` (``path:line`` when
        :func:`~repro.telemetry.export.load_snapshot_jsonl` reads a file)
        or else its 1-based position.
        """
        snap = cls()
        seen_meta = False
        for index, record in enumerate(records):
            where = (locations[index] if locations is not None
                     else f"record {index + 1}")
            _check(record, {"type": str}, {}, where, "telemetry record")
            kind = record["type"]
            if kind not in _FIELDS:
                raise ReproError(
                    f"{where}: unknown telemetry record type {kind!r}")
            _check(record, *_FIELDS[kind], where, f"{kind} record")
            if kind in _SERIES_FIELDS:
                for series in record["series"]:
                    _check(series, _SERIES_FIELDS[kind], {}, where,
                           f"{kind} series")
            payload = {k: v for k, v in record.items() if k != "type"}
            if kind != "meta":
                getattr(snap, _COLLECTIONS[kind]).append(payload)
                continue
            if payload["schema"] not in _READABLE_SCHEMAS:
                raise ReproError(
                    f"{where}: telemetry stream schema {payload['schema']} "
                    f"not supported (expected one of {_READABLE_SCHEMAS})"
                )
            snap.meta = dict(payload.get("meta", {}))
            snap.span_overflow = payload.get("span_overflow", 0)
            snap.audit_overflow = payload.get("audit_overflow", 0)
            seen_meta = True
        if not seen_meta:
            raise ReproError("telemetry stream carries no meta record")
        return snap


def _check(record: object, required: Dict[str, object],
           optional: Dict[str, object], where: str, what: str) -> None:
    """Raise ReproError unless ``record`` is an object with these fields."""
    if not isinstance(record, dict):
        raise ReproError(f"{where}: {what} is not an object")
    for fields, needed in ((required, True), (optional, False)):
        for key, kind in fields.items():
            if key not in record:
                if needed:
                    raise ReproError(f"{where}: {what} has no {key!r}")
                continue
            value = record[key]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ReproError(f"{where}: {what} {key!r} must be "
                                 f"{_TYPE_NAMES[kind]}, got {value!r}")


def _phase_rows(table: Dict[str, List[float]]) -> List[Dict[str, object]]:
    """A ``{name: [count, wall, cpu]}`` table as plain rows, by name."""
    return [
        {"name": name, "count": int(count), "wall": wall, "cpu": cpu}
        for name, (count, wall, cpu) in sorted(table.items())
    ]


def _scalar_metric(metric) -> Dict[str, object]:
    return {
        "name": metric.name,
        "help": metric.help,
        "series": [
            {"labels": _labels_dict(key), "value": value}
            for key, value in sorted(metric.series().items())
        ],
    }


def _series_key(labels: Dict[str, str]) -> tuple:
    return tuple(sorted(labels.items()))


def _merge_scalar(collections: List[List[Dict[str, object]]],
                  add: bool) -> List[Dict[str, object]]:
    """Merge counter/gauge metric lists: add values or last-writer-wins."""
    order: List[str] = []
    helps: Dict[str, str] = {}
    values: Dict[str, Dict[tuple, float]] = {}
    labels_of: Dict[str, Dict[tuple, Dict[str, str]]] = {}
    for collection in collections:
        for metric in collection:
            name = str(metric["name"])
            if name not in values:
                order.append(name)
                helps[name] = str(metric.get("help", ""))
                values[name] = {}
                labels_of[name] = {}
            for series in metric["series"]:
                key = _series_key(series["labels"])
                labels_of[name][key] = dict(series["labels"])
                if add:
                    values[name][key] = values[name].get(key, 0.0) + float(series["value"])
                else:
                    values[name][key] = float(series["value"])
    return [
        {
            "name": name,
            "help": helps[name],
            "series": [
                {"labels": labels_of[name][key], "value": value}
                for key, value in sorted(values[name].items())
            ],
        }
        for name in sorted(order)
    ]


def _merge_histogram_series(series_list: List[Dict[str, object]]
                            ) -> Dict[str, object]:
    bucket_counts = [0] * len(series_list[0]["bucket_counts"])
    count = 0
    total = 0.0
    sum_sq = 0.0
    lo = math.inf
    hi = -math.inf
    for series in series_list:
        if len(series["bucket_counts"]) != len(bucket_counts):
            raise ReproError(
                "cannot merge histogram series with differing bucket layouts"
            )
        if series["count"] == 0:
            continue
        for i, bin_count in enumerate(series["bucket_counts"]):
            bucket_counts[i] += bin_count
        count += series["count"]
        total += series["sum"]
        mean = float(series["mean"])
        stddev = float(series["stddev"])
        sum_sq += (stddev * stddev + mean * mean) * series["count"]
        lo = min(lo, float(series["min"]))
        hi = max(hi, float(series["max"]))
    mean = total / count if count else None
    return {
        "labels": dict(series_list[0]["labels"]),
        "bucket_counts": bucket_counts,
        "count": count,
        "sum": total,
        "min": lo if count else None,
        "max": hi if count else None,
        "mean": mean,
        "stddev": (math.sqrt(max(0.0, sum_sq / count - mean * mean))
                   if count else None),
    }


def _merge_histograms(collections: List[List[Dict[str, object]]]
                      ) -> List[Dict[str, object]]:
    helps: Dict[str, str] = {}
    buckets_of: Dict[str, List[float]] = {}
    grouped: Dict[str, Dict[tuple, List[Dict[str, object]]]] = {}
    for collection in collections:
        for metric in collection:
            name = str(metric["name"])
            if name not in grouped:
                helps[name] = str(metric.get("help", ""))
                buckets_of[name] = list(metric["buckets"])
                grouped[name] = {}
            elif list(metric["buckets"]) != buckets_of[name]:
                raise ReproError(
                    f"cannot merge histogram {name!r}: bucket bounds differ"
                )
            for series in metric["series"]:
                key = _series_key(series["labels"])
                grouped[name].setdefault(key, []).append(series)
    return [
        {
            "name": name,
            "help": helps[name],
            "buckets": buckets_of[name],
            "series": [
                _merge_histogram_series(series_list)
                for _, series_list in sorted(grouped[name].items())
            ],
        }
        for name in sorted(grouped)
    ]


def _histogram_metric(metric) -> Dict[str, object]:
    series = []
    for key, state in sorted(metric.series().items()):
        series.append(
            {
                "labels": _labels_dict(key),
                "bucket_counts": list(state.bucket_counts),
                "count": state.count,
                "sum": state.sum,
                "min": None if math.isinf(state.min) else state.min,
                "max": None if math.isinf(state.max) else state.max,
                "mean": None if state.count == 0 else state.mean(),
                "stddev": None if state.count == 0 else state.stddev(),
            }
        )
    return {
        "name": metric.name,
        "help": metric.help,
        "buckets": list(metric.buckets),
        "series": series,
    }
