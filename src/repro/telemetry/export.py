"""Exporters, span-tree analysis, and the human report.

Everything here consumes plain data — a
:class:`~repro.telemetry.snapshot.TelemetrySnapshot` or a list of
:class:`~repro.telemetry.spans.SpanRecord` — never a live recorder, so
exporting cannot perturb a run and ``repro metrics`` can re-render a
stream written days earlier.

- :func:`to_prometheus` — Prometheus text exposition.
- :func:`write_jsonl` / :func:`load_snapshot_jsonl` — the snapshot
  stream (``events.jsonl``), the one on-disk format for every record
  type, spans and phases included.
- :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome Trace
  Format, loadable in Perfetto / ``chrome://tracing``. Each span becomes
  a complete (``"X"``) event; ``tid`` lanes are *clock domains*: a span
  shares its parent's lane only while its interval nests inside the
  parent's, so a subtree merged from a pool worker — timed against that
  worker's clock epoch — heads its own lane instead of being mis-nested
  on the dispatcher's timeline.
- :func:`span_tree_digest` / :func:`critical_path` / :func:`top_phases`
  — the analysis behind the report and the determinism tests: the
  digest hashes only ``(id, parent, name)`` triples, never timings, so
  it is bitwise stable across machines and worker counts.
- :func:`render_report` — the ``repro metrics`` summary, built from
  section renderers (:func:`phase_section`,
  :func:`critical_path_section`) that ``repro profile`` prints too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.telemetry.spans import SpanRecord

__all__ = [
    "to_prometheus",
    "to_jsonl_lines",
    "write_jsonl",
    "load_snapshot_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "span_tree_digest",
    "critical_path",
    "top_phases",
    "phase_section",
    "critical_path_section",
    "render_report",
]


def _prom_name(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _prom_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{_prom_name(k)}="{v}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus(snapshot: TelemetrySnapshot) -> str:
    """Prometheus text exposition format (counters, gauges, histograms)."""
    lines: List[str] = []

    def emit_scalar(metric: Dict[str, object], kind: str) -> None:
        name = _prom_name(metric["name"])
        if metric.get("help"):
            lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for series in metric["series"]:
            lines.append(f"{name}{_prom_labels(series['labels'])} {series['value']:g}")

    for metric in snapshot.counters:
        emit_scalar(metric, "counter")
    for metric in snapshot.gauges:
        emit_scalar(metric, "gauge")
    for metric in snapshot.histograms:
        name = _prom_name(metric["name"])
        if metric.get("help"):
            lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} histogram")
        bounds = list(metric["buckets"]) + ["+Inf"]
        for series in metric["series"]:
            labels = series["labels"]
            cumulative = 0
            for bound, count in zip(bounds, series["bucket_counts"]):
                cumulative += count
                le = "+Inf" if bound == "+Inf" else f"{bound:g}"
                le_label = 'le="' + le + '"'
                lines.append(
                    f"{name}_bucket{_prom_labels(labels, le_label)} {cumulative}"
                )
            lines.append(f"{name}_sum{_prom_labels(labels)} {series['sum']:g}")
            lines.append(f"{name}_count{_prom_labels(labels)} {series['count']}")
    return "\n".join(lines) + "\n"


def to_jsonl_lines(snapshot: TelemetrySnapshot) -> List[str]:
    return [json.dumps(record, sort_keys=True) for record in snapshot.to_records()]


def write_jsonl(snapshot: TelemetrySnapshot, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text("\n".join(to_jsonl_lines(snapshot)) + "\n")
    return path


def load_snapshot_jsonl(path: Union[str, Path]) -> TelemetrySnapshot:
    path = Path(path)
    if not path.exists():
        raise ReproError(f"telemetry stream not found: {path}")
    records = []
    locations = []
    with path.open() as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{path}:{line_no}: invalid JSON in telemetry stream: {exc}"
                ) from None
            locations.append(f"{path}:{line_no}")
    return TelemetrySnapshot.from_records(records, locations)


# ----------------------------------------------------------------------
# Chrome trace and span-tree analysis
# ----------------------------------------------------------------------


_US = 1_000_000.0  # Chrome trace timestamps are microseconds.
_EPS_S = 1e-6  # Nesting slack: float round-trips through µs timestamps.


def _lane_assignment(records: Sequence[SpanRecord]) -> Dict[int, int]:
    """Map each span id to the id of the span heading its ``tid`` lane.

    A lane is a clock domain. A span joins its parent's lane only when
    its ``[start, start+wall]`` interval nests inside the parent's
    (small float tolerance); a child that escapes — a subtree merged
    from a pool worker, timed against that worker's clock epoch and
    re-parented under the dispatching span — heads a new lane, as does
    any root or orphan (a span whose parent was dropped by the cap
    stays visible instead of vanishing).
    """
    by_id = {r.span_id: r for r in records}
    lanes: Dict[int, int] = {}

    def nests(child: SpanRecord, parent: SpanRecord) -> bool:
        return (child.start >= parent.start - _EPS_S
                and child.start + child.wall
                <= parent.start + parent.wall + _EPS_S)

    def resolve(span_id: int) -> int:
        chain = []
        cursor = span_id
        while cursor not in lanes:
            chain.append(cursor)
            record = by_id[cursor]
            parent = record.parent_id
            if (parent is None or parent not in by_id
                    or not nests(record, by_id[parent])):
                lanes[cursor] = cursor
                break
            cursor = parent
        head = lanes[cursor]
        for sid in chain:
            lanes[sid] = head
        return head

    for record in records:
        resolve(record.span_id)
    return lanes


def to_chrome_trace(records: Sequence[SpanRecord],
                    phases: Optional[Sequence[Dict[str, object]]] = None,
                    meta: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Render spans (and optionally a phase table) as a Chrome trace dict.

    Events are sorted by ``(tid, ts, -dur)`` so parents precede their
    children at equal timestamps and the output is deterministic for a
    deterministic record set.
    """
    lanes = _lane_assignment(records)
    # Deterministic tid per lane: lane heads ordered by earliest start
    # (comparable only within a domain, but stable), ties by span id.
    lane_order: Dict[int, int] = {}
    lane_starts: Dict[int, float] = {}
    lane_names: Dict[int, str] = {}
    for record in records:
        lane = lanes[record.span_id]
        if lane not in lane_starts or record.start < lane_starts[lane]:
            lane_starts[lane] = record.start
        if record.span_id == lane:
            lane_names[lane] = record.name
    for tid, lane in enumerate(
            sorted(lane_starts, key=lambda l: (lane_starts[l], l)), start=1):
        lane_order[lane] = tid

    events: List[Dict[str, object]] = []
    for lane, tid in sorted(lane_order.items(), key=lambda kv: kv[1]):
        events.append({
            "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
            "args": {"name": lane_names.get(lane, f"subtree {lane}")},
        })
    span_events: List[Dict[str, object]] = []
    for record in records:
        event: Dict[str, object] = {
            "ph": "X",
            "pid": 1,
            "tid": lane_order[lanes[record.span_id]],
            "name": record.name,
            "cat": "repro",
            "ts": record.start * _US,
            "dur": record.wall * _US,
            "args": {
                "span_id": record.span_id,
                "parent_id": record.parent_id,
                "cpu_s": record.cpu,
            },
        }
        if record.attrs:
            event["args"].update(
                {str(k): v for k, v in sorted(record.attrs.items())})
        span_events.append(event)
    span_events.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    events.extend(span_events)

    other: Dict[str, object] = dict(meta or {})
    if phases:
        other["phases"] = list(phases)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(path: str, records: Sequence[SpanRecord],
                       phases: Optional[Sequence[Dict[str, object]]] = None,
                       meta: Optional[Dict[str, object]] = None) -> None:
    trace = to_chrome_trace(records, phases=phases, meta=meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=None, separators=(",", ":"))
        handle.write("\n")


def span_tree_digest(records: Sequence[SpanRecord]) -> str:
    """SHA-256 over the sorted ``(id, parent, name)`` structure.

    Timings are excluded on purpose: two runs with identical structure
    but different wall clocks digest identically, which is exactly the
    property the workers-1-vs-N determinism test asserts.
    """
    lines = sorted(
        f"{r.span_id}|{r.parent_id if r.parent_id is not None else 0}|{r.name}"
        for r in records
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def critical_path(records: Sequence[SpanRecord]) -> List[SpanRecord]:
    """The max-wall root-to-leaf chain through the span tree.

    At each level the child with the largest wall time is taken
    (ties broken by span id, so the path is deterministic). For serving
    runs this surfaces the dominating request/control chain; for batch
    runs it descends into the slowest batch.
    """
    if not records:
        return []
    by_id = {r.span_id: r for r in records}
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for record in records:
        parent = record.parent_id if record.parent_id in by_id else None
        children.setdefault(parent, []).append(record)

    def pick(candidates: List[SpanRecord]) -> SpanRecord:
        return max(candidates, key=lambda r: (r.wall, -r.span_id))

    path: List[SpanRecord] = []
    cursor: Optional[SpanRecord] = pick(children.get(None, []))
    while cursor is not None:
        path.append(cursor)
        kids = children.get(cursor.span_id)
        cursor = pick(kids) if kids else None
    return path


def top_phases(phases: Sequence[Dict[str, object]],
               limit: int = 10) -> List[Dict[str, object]]:
    """The ``limit`` phases with the largest cumulative wall time."""
    ranked = sorted(phases, key=lambda p: (-float(p["wall"]), str(p["name"])))
    return list(ranked[: max(0, int(limit))])


# ----------------------------------------------------------------------
# Human report
# ----------------------------------------------------------------------

def _span_rollup(snapshot: TelemetrySnapshot) -> List[Dict[str, object]]:
    """Cumulative wall/CPU per span name, from the aggregate histogram."""
    rollup: Dict[str, Dict[str, object]] = {}
    for series in snapshot.histogram_series("repro_span_seconds"):
        name = series["labels"].get("name", "?")
        rollup[name] = {
            "name": name,
            "count": series["count"],
            "wall": series["sum"],
            "mean": series["sum"] / series["count"] if series["count"] else 0.0,
        }
    # CPU totals come from the retained span records (capped, best-effort).
    for span in snapshot.spans:
        entry = rollup.get(span["name"])
        if entry is not None:
            entry["cpu"] = entry.get("cpu", 0.0) + span["cpu"]
    return sorted(rollup.values(), key=lambda e: -e["wall"])


def phase_section(phases: Sequence[Dict[str, object]],
                  limit: int = 10) -> List[str]:
    """The ``limit`` phases with the most wall time, as report lines."""
    if not phases:
        return []
    lines = ["", "phases (top by cumulative wall time)",
             f"  {'name':<32} {'calls':>9} {'wall s':>10} {'cpu s':>10}"]
    for entry in top_phases(phases, limit=limit):
        lines.append(
            f"  {entry['name']:<32} {entry['count']:>9} "
            f"{float(entry['wall']):>10.4f} {float(entry['cpu']):>10.4f}"
        )
    if len(phases) > limit:
        lines.append(f"  (+ {len(phases) - limit} more phases)")
    return lines


def critical_path_section(records: Sequence[SpanRecord]) -> List[str]:
    """The max-wall root-to-leaf chain, as report lines (none if trivial)."""
    path = critical_path(records)
    if len(path) <= 1:
        return []
    lines = ["", "critical path (max-wall chain through the span tree)"]
    for depth, record in enumerate(path):
        lines.append(f"  {'  ' * depth}{record.name}  "
                     f"wall={record.wall:.4f}s cpu={record.cpu:.4f}s")
    return lines


def render_report(snapshot: TelemetrySnapshot) -> str:
    """The ``repro metrics`` summary: spans, key counters, audit causes."""
    lines: List[str] = ["telemetry report", "================"]
    meta = {k: v for k, v in snapshot.meta.items() if k != "created_at"}
    for key in sorted(meta):
        lines.append(f"{key:<14}: {meta[key]}")

    rollup = _span_rollup(snapshot)
    if rollup:
        lines.append("")
        lines.append("spans (cumulative wall time)")
        lines.append(f"  {'name':<32} {'calls':>7} {'wall s':>10} {'mean s':>10} {'cpu s':>10}")
        for entry in rollup:
            cpu = entry.get("cpu")
            lines.append(
                f"  {entry['name']:<32} {entry['count']:>7} "
                f"{entry['wall']:>10.4f} {entry['mean']:>10.6f} "
                f"{cpu if cpu is None else format(cpu, '10.4f'):>10}"
            )
        if snapshot.span_overflow:
            lines.append(f"  ({snapshot.span_overflow} spans beyond the record cap; "
                         "aggregates above remain exact)")

    lines.extend(phase_section(snapshot.phases))
    lines.extend(critical_path_section(
        [SpanRecord.from_dict(span) for span in snapshot.spans]))

    interesting = [
        metric for metric in snapshot.counters
        if metric["name"] != "repro_span_seconds" and metric["series"]
    ]
    if interesting:
        lines.append("")
        lines.append("counters")
        for metric in interesting:
            for series in metric["series"]:
                labels = ",".join(f"{k}={v}" for k, v in sorted(series["labels"].items()))
                suffix = f"{{{labels}}}" if labels else ""
                lines.append(f"  {metric['name']}{suffix:<40} {series['value']:g}")

    retry_rows: List[str] = []
    for metric in snapshot.counters:
        if metric["name"] not in ("repro_retry_attempts_total",
                                  "repro_retry_exhausted_total"):
            continue
        kind = ("scheduled" if metric["name"] == "repro_retry_attempts_total"
                else "exhausted")
        for series in sorted(
            metric["series"],
            key=lambda s: (s["labels"].get("op", ""), s["labels"].get("cause", "")),
        ):
            labels = series["labels"]
            retry_rows.append(
                f"  {kind:<10} {labels.get('op', '?'):<6} "
                f"{labels.get('cause', '?'):<18} {series['value']:>12g}"
            )
    if retry_rows:
        lines.append("")
        lines.append("retry pressure (by op and denial cause)")
        lines.extend(retry_rows)

    submitted = snapshot.audit_volume()
    if submitted > 0:
        granted = snapshot.audit_volume(reason="granted")
        denied = submitted - granted
        lines.append("")
        lines.append("quorum-decision audit")
        lines.append(f"  submitted : {submitted:g}")
        lines.append(f"  granted   : {granted:g}  (ACC = {granted / submitted:.4f})")
        lines.append(f"  denied    : {denied:g}")
        by_reason = snapshot.denials_by_reason()
        for reason in sorted(by_reason):
            share = by_reason[reason] / denied if denied > 0 else 0.0
            lines.append(f"    {reason:<18} {by_reason[reason]:>12g}  ({share:6.1%})")
        residual = denied - sum(by_reason.values())
        lines.append(f"  unattributed denial volume: {abs(residual):.3g}")
    return "\n".join(lines)
