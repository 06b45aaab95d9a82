"""Cross-process tracing and phase-attributed profiling.

The package splits into three small modules:

- :mod:`repro.tracing.context` — deterministic trace-context
  propagation across the process pool and the serving loop.
- :mod:`repro.tracing.profiler` — named-phase wall/CPU accounting for
  the hot kernels, with a null twin for the disabled path.
- :mod:`repro.tracing.export` — Chrome Trace Format / JSONL exporters
  and the span-tree analysis helpers (digest, critical path).
"""

from repro.tracing.context import (
    SCOPE_BATCH,
    SCOPE_RUN,
    SCOPE_SERVE,
    TraceContext,
)
from repro.tracing.export import (
    critical_path,
    span_tree_digest,
    to_chrome_trace,
    top_phases,
    write_chrome_trace,
    write_span_jsonl,
)
from repro.tracing.profiler import (
    NULL_PROFILER,
    NullProfiler,
    PhaseProfiler,
    merge_phase_lists,
)

__all__ = [
    "SCOPE_RUN",
    "SCOPE_BATCH",
    "SCOPE_SERVE",
    "TraceContext",
    "PhaseProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "merge_phase_lists",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_span_jsonl",
    "span_tree_digest",
    "critical_path",
    "top_phases",
]
