"""Process-pool batch fan-out (DESIGN.md §8).

Batches are independent by construction — every random stream a batch
touches derives from ``(config.seed, batch_index)`` alone — so a run is
embarrassingly parallel across batches. This module owns the worker
protocol shared by :func:`~repro.simulation.runner.run_simulation` and
:func:`~repro.faults.chaos.run_chaos_campaign`:

- The recording options and the ``(config, protocol)`` pair cross once
  per worker (:func:`repro.pool.fan_out`'s ``shared``); each task then
  ships only a batch index, and its :class:`BatchOutcome` comes back
  through the pool's pickle pipe.
- Every batch builds a *fresh* engine, telemetry recorder, and invariant
  monitor inside the worker, and returns a plain-data
  :class:`BatchOutcome`. Per-batch (rather than per-worker) recording is
  what keeps the merge deterministic: outcomes arrive in batch index
  order, so counters, audit totals, and pooled densities are added in
  exactly the serial order regardless of how the pool scheduled the
  work.
- Telemetry snapshots merge via
  :meth:`~repro.telemetry.snapshot.TelemetrySnapshot.merged`; monitor
  state merges via :func:`merge_monitor_outcomes`, which respects the
  parent monitor's ``max_records`` cap (overflow is counted, not
  stored, exactly like the live monitor).

Callback-style options (``change_observer``, a pre-populated custom
``monitor``) cannot cross a process boundary; callers reject them
before fanning out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import BatchExecutionError
from repro.faults.monitor import InvariantMonitor, ViolationRecord
from repro.protocols.base import ReplicaControlProtocol
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import BatchResult, SimulationEngine
from repro.telemetry import recorder
from repro.telemetry.recorder import Telemetry
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.tracing.context import SCOPE_BATCH, TraceContext

__all__ = [
    "BatchOutcome",
    "run_batches_parallel",
    "merge_monitor_outcomes",
]


@dataclass
class BatchOutcome:
    """Plain-data result of one batch executed in a worker process."""

    batch_index: int
    #: Exactly one of ``batch`` / ``quarantine_error`` is set.
    batch: Optional[BatchResult] = None
    quarantine_error: Optional[BatchExecutionError] = None
    #: Per-batch telemetry capture (None when recording was off).
    snapshot: Optional[TelemetrySnapshot] = None
    #: Invariant-monitor state (None when no monitor was attached).
    violations: Optional[List[ViolationRecord]] = None
    checks_run: int = 0
    overflowed: int = 0


#: What every worker needs and no batch changes: ``(config, protocol,
#: record_telemetry, monitor_kwargs, trace_parent)``.
_Shared = Tuple[SimulationConfig, ReplicaControlProtocol, bool,
                Optional[dict], Optional[int]]


def _run_one_batch(shared: _Shared, batch_index: int) -> BatchOutcome:
    config, protocol, record_telemetry, monitor_kwargs, trace_parent = shared
    telemetry = Telemetry() if record_telemetry else None
    monitor = (
        InvariantMonitor(telemetry=telemetry, **monitor_kwargs)
        if monitor_kwargs is not None
        else None
    )
    if monitor is not None:
        monitor.start_batch(batch_index, seed=config.seed)
    engine = SimulationEngine(
        config,
        protocol,
        change_observer=monitor.observe if monitor is not None else None,
        telemetry=telemetry,
    )
    outcome = BatchOutcome(batch_index=batch_index)
    try:
        if telemetry is not None:
            # Batch-scope trace context: span ids derive from
            # (seed, batch_index, ordinal) and worker-root spans adopt
            # the dispatching span as parent, so the merged tree is
            # identical to a serial run's. `use` makes the recorder
            # visible to kernels that resolve via recorder.current().
            context = TraceContext(config.seed, SCOPE_BATCH, batch_index,
                                   trace_parent)
            with recorder.use(telemetry), telemetry.spans.scoped(context):
                outcome.batch = engine.run_batch(batch_index)
        else:
            outcome.batch = engine.run_batch(batch_index)
    except BatchExecutionError as exc:
        # Break the traceback/cause chain before pickling: the cause may
        # hold arbitrary (unpicklable) protocol state. The quarantine
        # machinery only reads type/message, which we bake into a fresh
        # cause of the same class name.
        cause = exc.__cause__
        clean = BatchExecutionError(
            exc.message,
            batch_index=exc.batch_index,
            trace=exc.trace,
            sim_time=exc.sim_time,
            seed=exc.seed,
            snapshot=exc.snapshot,
        )
        if cause is not None:
            clean.__cause__ = type(cause)(str(cause)) if _safe_cause(cause) else None
            if clean.__cause__ is None:
                clean.__cause__ = RuntimeError(f"{type(cause).__name__}: {cause}")
        outcome.quarantine_error = clean
    if telemetry is not None:
        outcome.snapshot = telemetry.snapshot(meta={"batch_index": batch_index})
    if monitor is not None:
        outcome.violations = monitor.violations
        outcome.checks_run = monitor.checks_run
        outcome.overflowed = monitor.overflowed
    return outcome


def _safe_cause(cause: BaseException) -> bool:
    """Can ``type(cause)(str(cause))`` plausibly reconstruct the cause?"""
    try:
        type(cause)(str(cause))
        return True
    except Exception:
        return False


def run_batches_parallel(
    config: SimulationConfig,
    protocol: ReplicaControlProtocol,
    batch_indices: Sequence[int],
    n_workers: int,
    record_telemetry: bool = False,
    monitor_kwargs: Optional[dict] = None,
    trace_parent: Optional[int] = None,
) -> List[BatchOutcome]:
    """Fan ``batch_indices`` out over a process pool; outcomes in their order.

    ``monitor_kwargs`` (e.g. ``{"max_records": 1000}``) attaches a fresh
    :class:`InvariantMonitor` per batch inside each worker; ``None``
    means no monitoring. ``trace_parent`` is the dispatching span id
    (``BatchTracer.root_id``) that worker-local root spans re-parent
    under. Outcome ``k`` belongs to ``batch_indices[k]`` however the
    pool scheduled the work, so every downstream aggregation is
    deterministic.
    """
    from repro.pool import fan_out

    shared: _Shared = (config, protocol, record_telemetry, monitor_kwargs,
                       trace_parent)
    return fan_out(_run_one_batch, shared, batch_indices, n_workers)


def merge_monitor_outcomes(monitor: InvariantMonitor,
                           outcomes: Sequence[BatchOutcome]) -> None:
    """Fold per-batch monitor state into the campaign's parent monitor.

    Violations append in batch-index order up to the parent's
    ``max_records`` cap (the remainder is counted as overflow, matching
    live-monitor semantics); check and overflow counts add.
    """
    for outcome in outcomes:
        if outcome.violations is None:
            continue
        monitor.checks_run += outcome.checks_run
        monitor.overflowed += outcome.overflowed
        for violation in outcome.violations:
            if len(monitor.violations) >= monitor.max_records:
                monitor.overflowed += 1
            else:
                monitor.violations.append(violation)
