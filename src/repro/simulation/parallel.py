"""The one batch loop (DESIGN.md §8).

Batches are independent by construction — every random stream a batch
touches derives from ``(config.seed, batch_index)`` alone — so a run may
execute them in this process or fan them out over a pool.
:class:`BatchLoop` is the loop both
:func:`~repro.simulation.runner.run_simulation` and
:func:`~repro.faults.chaos.run_chaos_campaign` drive. Batch ``k`` runs
under ``TraceContext(seed, "batch", k, root)`` in either mode, so every
span id — and the tree digest — is the same for any ``n_workers``:

- ``n_workers == 1``: batches run lazily, in-process, recording into the
  caller's recorder and monitor; ``fail_fast`` stops at the first
  failed batch.
- ``n_workers > 1``: :func:`repro.pool.fan_out` ships the ``(config,
  protocol)`` pair and the recording options once per worker and a batch
  index per task. Every batch builds a *fresh* engine, recorder and
  monitor; outcomes arrive in batch-index order, so counters, audit
  totals and pooled densities add in exactly the serial order.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.errors import BatchExecutionError, SimulationError
from repro.protocols.base import ReplicaControlProtocol
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import BatchResult, ChangeObserver, SimulationEngine
from repro.simulation.runner import QuarantinedBatch
from repro.telemetry import recorder
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.telemetry.spans import SCOPE_BATCH, SCOPE_RUN, TraceContext

if TYPE_CHECKING:
    from repro.faults.monitor import InvariantMonitor, ViolationRecord

__all__ = ["BatchOutcome", "BatchLoop"]


@dataclass
class BatchOutcome:
    """Plain-data result of one batch, in either mode."""

    batch_index: int
    #: Exactly one of ``batch`` / ``quarantine_error`` is set.
    batch: Optional[BatchResult] = None
    quarantine_error: Optional[BatchExecutionError] = None
    #: Per-batch telemetry capture (workers with recording on only).
    snapshot: Optional[TelemetrySnapshot] = None
    #: Worker monitor state (None in-process: the live monitor has it).
    violations: Optional[List["ViolationRecord"]] = None
    checks_run: int = 0
    overflowed: int = 0


def _attempt(engine: SimulationEngine, monitor: Optional["InvariantMonitor"],
             batch_index: int, trace_parent: Optional[int]) -> BatchOutcome:
    """Run one batch under its trace context; a death becomes the outcome."""
    outcome = BatchOutcome(batch_index)
    seed = engine.config.seed
    if monitor is not None:
        monitor.start_batch(batch_index, seed=seed)
    telemetry = engine.telemetry
    try:
        if telemetry.enabled:
            # `use` makes the recorder visible to kernels that resolve
            # via recorder.current().
            context = TraceContext(seed, SCOPE_BATCH, batch_index, trace_parent)
            with recorder.use(telemetry), telemetry.spans.scoped(context):
                outcome.batch = engine.run_batch(batch_index)
        else:
            outcome.batch = engine.run_batch(batch_index)
    except BatchExecutionError as exc:
        outcome.quarantine_error = exc
    return outcome


#: What every worker needs and no batch changes: ``(config, protocol,
#: record_telemetry, monitor_kwargs, trace_parent)``.
_Shared = Tuple[SimulationConfig, ReplicaControlProtocol, bool,
                Optional[dict], Optional[int]]


def _run_one_batch(shared: _Shared, batch_index: int) -> BatchOutcome:
    config, protocol, record_telemetry, monitor_kwargs, trace_parent = shared
    telemetry = recorder.Telemetry() if record_telemetry else recorder.NULL
    monitor = None
    if monitor_kwargs is not None:
        from repro.faults.monitor import InvariantMonitor

        monitor = InvariantMonitor(telemetry=telemetry, **monitor_kwargs)
    engine = SimulationEngine(
        config, protocol,
        change_observer=monitor.observe if monitor is not None else None,
        telemetry=telemetry,
    )
    outcome = _attempt(engine, monitor, batch_index, trace_parent)
    if outcome.quarantine_error is not None:
        outcome.quarantine_error = _picklable(outcome.quarantine_error)
    if record_telemetry:
        outcome.snapshot = telemetry.snapshot(meta={"batch_index": batch_index})
    if monitor is not None:
        outcome.violations = monitor.violations
        outcome.checks_run = monitor.checks_run
        outcome.overflowed = monitor.overflowed
    return outcome


def _picklable(exc: BatchExecutionError) -> BatchExecutionError:
    """``exc`` with its cause rebuilt from type name and message.

    The original cause (and its traceback) may hold unpicklable protocol
    state; quarantine reporting reads only its type and message.
    """
    clean = BatchExecutionError(
        exc.message,
        batch_index=exc.batch_index,
        trace=exc.trace,
        sim_time=exc.sim_time,
        seed=exc.seed,
        snapshot=exc.snapshot,
    )
    cause = exc.__cause__
    if cause is not None:
        try:
            clean.__cause__ = type(cause)(str(cause))
        except Exception:
            clean.__cause__ = RuntimeError(f"{type(cause).__name__}: {cause}")
    return clean


class BatchLoop:
    """One run's batches: trace root, dispatch, and the outcome consumer.

    Use as a context manager around every :meth:`run` call of the run
    (the ``run.batches`` root span covers them all), then read
    ``batches`` / ``quarantined`` and take :meth:`snapshot` after it
    closes. :meth:`run` quarantines or raises, collects worker snapshots
    and merges worker monitors under the parent's ``max_records`` cap.
    A ``monitor`` marks a chaos campaign: every quarantine increments
    ``repro_chaos_quarantined_total`` on the caller's recorder.
    ``change_observer`` (a plain run's hook, never a campaign's) cannot
    cross a process boundary and is rejected with ``n_workers > 1``.
    """

    def __init__(
        self,
        config: SimulationConfig,
        protocol: ReplicaControlProtocol,
        telemetry,
        n_workers: int,
        fail_fast: bool,
        monitor: Optional["InvariantMonitor"] = None,
        change_observer: Optional[ChangeObserver] = None,
    ) -> None:
        if n_workers <= 0:
            raise SimulationError(f"n_workers must be positive, got {n_workers}")
        if n_workers > 1 and change_observer is not None:
            raise SimulationError(
                "change_observer callbacks cannot cross the process boundary; "
                "use n_workers=1"
            )
        if monitor is not None and change_observer is not None:
            raise SimulationError("pass a monitor or a change_observer, not both")
        self.config = config
        self.protocol = protocol
        self.telemetry = telemetry
        self.n_workers = n_workers
        self.fail_fast = fail_fast
        self.monitor = monitor
        self.batches: List[BatchResult] = []
        self.quarantined: List[QuarantinedBatch] = []
        self._snapshots: List[TelemetrySnapshot] = []
        self._engine = (
            SimulationEngine(config, protocol,
                             change_observer if monitor is None
                             else monitor.observe,
                             telemetry=telemetry)
            if n_workers == 1 else None
        )
        #: Span id batch contexts re-parent under (None = not recording).
        self._root_id: Optional[int] = None
        self._scope = ExitStack()

    def __enter__(self) -> "BatchLoop":
        if self.telemetry.enabled:
            self._scope.enter_context(self.telemetry.spans.scoped(
                TraceContext(self.config.seed, SCOPE_RUN, 0)))
            root = self._scope.enter_context(self.telemetry.span(
                "run.batches", protocol=self.protocol.name,
                topology=self.config.topology.name))
            self._root_id = root.span_id
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._scope.__exit__(exc_type, exc, tb)

    # ------------------------------------------------------------------
    def outcomes(self, indices: Sequence[int]) -> Iterator[BatchOutcome]:
        """One outcome per index, in index order."""
        if self._engine is not None:
            for index in indices:
                yield _attempt(self._engine, self.monitor, index, self._root_id)
            return
        from repro.pool import fan_out

        monitor_kwargs = None if self.monitor is None else {
            "record_snapshots": self.monitor.record_snapshots,
            "max_records": self.monitor.max_records,
        }
        shared: _Shared = (self.config, self.protocol, self.telemetry.enabled,
                           monitor_kwargs, self._root_id)
        yield from fan_out(_run_one_batch, shared, indices, self.n_workers)

    def run(self, indices: Sequence[int]) -> None:
        """Run ``indices`` and fold their outcomes into the run."""
        monitor = self.monitor
        for outcome in self.outcomes(indices):
            if outcome.violations is not None:
                # Past the parent's cap a violation is counted, not kept.
                room = max(monitor.max_records - len(monitor.violations), 0)
                kept = outcome.violations[:room]
                monitor.violations.extend(kept)
                monitor.checks_run += outcome.checks_run
                monitor.overflowed += (outcome.overflowed
                                       + len(outcome.violations) - len(kept))
            if outcome.snapshot is not None:
                self._snapshots.append(outcome.snapshot)
            error = outcome.quarantine_error
            if error is None:
                self.batches.append(outcome.batch)
                continue
            if self.fail_fast:
                raise error
            self.quarantined.append(QuarantinedBatch.from_error(error))
            if monitor is not None:
                self.telemetry.metrics.counter(
                    "repro_chaos_quarantined_total",
                    "chaos batches quarantined after an execution error",
                ).inc(protocol=self.protocol.name)

    def snapshot(self, **meta: object) -> Optional[TelemetrySnapshot]:
        """The run's telemetry (None when not recording)."""
        if not self.telemetry.enabled:
            return None
        if self._engine is not None:
            return self.telemetry.snapshot(meta=meta)
        # The dispatcher's own snapshot goes first: it holds the root
        # span the per-batch subtrees re-parent under.
        return TelemetrySnapshot.merged(
            [self.telemetry.snapshot()] + self._snapshots,
            meta={**meta, "n_workers": self.n_workers},
        )
