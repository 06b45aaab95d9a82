"""Telemetry: metrics, spans, phases, and the quorum-decision audit log.

The observability layer for the whole simulation stack (DESIGN.md §7).
Four surfaces behind one recorder object:

- **metrics** — labeled :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` series in a :class:`MetricsRegistry`;
- **spans** — nested timed sections with wall + CPU clocks, whose ids
  derive from a :class:`TraceContext` so the tree is the same for any
  worker count;
- **phases** — ``(count, wall, cpu)`` per named kernel section;
- **audit** — per-decision grant/denial records with causes, making ACC
  decomposable (``site_down`` / ``no_quorum`` / ``stale_assignment``).

Instrumented code takes an optional ``telemetry`` argument and resolves
it with :func:`resolve`; the default is the module-level :data:`NULL`
recorder, whose every operation is a no-op, so an uninstrumented run
pays (nearly) nothing. Enable by passing a :class:`Telemetry` instance
or scoping one with :func:`use`; freeze results with
:meth:`Telemetry.snapshot` and export via :mod:`repro.telemetry.export`.
"""

from repro.telemetry.audit import (
    AuditLog,
    AuditRecord,
    DENIAL_REASONS,
    GRANTED,
    NO_QUORUM,
    SITE_DOWN,
    STALE_ASSIGNMENT,
)
from repro.telemetry.export import (
    critical_path,
    load_snapshot_jsonl,
    render_report,
    span_tree_digest,
    to_chrome_trace,
    to_jsonl_lines,
    to_prometheus,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.recorder import (
    NULL,
    NullTelemetry,
    Telemetry,
    current,
    resolve,
    set_current,
    use,
)
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.telemetry.spans import SpanCollector, SpanRecord, TraceContext

__all__ = [
    "AuditLog",
    "AuditRecord",
    "Counter",
    "DENIAL_REASONS",
    "GRANTED",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NO_QUORUM",
    "NULL",
    "NullTelemetry",
    "SITE_DOWN",
    "STALE_ASSIGNMENT",
    "SpanCollector",
    "SpanRecord",
    "Telemetry",
    "TelemetrySnapshot",
    "TraceContext",
    "critical_path",
    "current",
    "load_snapshot_jsonl",
    "render_report",
    "resolve",
    "set_current",
    "span_tree_digest",
    "to_chrome_trace",
    "to_jsonl_lines",
    "to_prometheus",
    "use",
    "write_chrome_trace",
    "write_jsonl",
]
