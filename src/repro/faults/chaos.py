"""Chaos campaigns: scripted faults + invariant monitoring + quarantine.

:func:`run_chaos_campaign` is the top of the chaos stack. It runs a
protocol through many batches of a fault-scheduled simulation with an
:class:`~repro.faults.monitor.InvariantMonitor` attached, quarantines any
batch that dies (keeping its seed and fault trace: batch streams derive
from ``(seed, batch)`` alone, so
``SimulationEngine(config, protocol, record_trace=True).run_batch(i)``
replays it exactly), and renders everything into a :class:`ChaosReport`.
A clean protocol passes a long sweep with zero violations and zero
aborted batches; a broken one is caught with enough context to reproduce
the exact failing scenario.

:func:`unchecked_assignment` deliberately builds an *invalid* quorum
assignment (bypassing the section-2.1 validation) so tests and demos can
prove the monitor actually detects intersection violations rather than
relying on construction-time checks that a real bug could sidestep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import FaultInjectionError
from repro.faults.monitor import InvariantMonitor, ViolationRecord
from repro.protocols.base import ReplicaControlProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import BatchResult
from repro.simulation.parallel import BatchLoop
from repro.simulation.runner import QuarantinedBatch
from repro.telemetry.recorder import resolve as _resolve_telemetry
from repro.telemetry.snapshot import TelemetrySnapshot

__all__ = [
    "ChaosReport",
    "run_chaos_campaign",
    "unchecked_assignment",
]


def unchecked_assignment(total_votes: int, read_quorum: int,
                         write_quorum: int) -> QuorumAssignment:
    """Build a quorum assignment WITHOUT the section-2.1 validation.

    Chaos-testing only: this is how a campaign injects a deliberately
    broken assignment (e.g. ``q_r + q_w <= T``) to prove the invariant
    monitor catches it. Refuses to build an assignment that would pass
    validation anyway — use the real constructor for those.
    """
    try:
        QuorumAssignment(total_votes, read_quorum, write_quorum)
    except Exception:
        assignment = object.__new__(QuorumAssignment)
        object.__setattr__(assignment, "total_votes", int(total_votes))
        object.__setattr__(assignment, "read_quorum", int(read_quorum))
        object.__setattr__(assignment, "write_quorum", int(write_quorum))
        return assignment
    raise FaultInjectionError(
        f"(q_r={read_quorum}, q_w={write_quorum}, T={total_votes}) is a valid "
        "assignment; unchecked_assignment is only for deliberately broken ones"
    )


@dataclass
class ChaosReport:
    """Everything a chaos campaign observed."""

    protocol_name: str
    schedule_description: str
    n_batches_requested: int
    batches: List[BatchResult] = field(default_factory=list)
    quarantined: List[QuarantinedBatch] = field(default_factory=list)
    monitor: Optional[InvariantMonitor] = None
    #: Telemetry snapshot of the campaign (None unless a recorder ran).
    telemetry: Optional[TelemetrySnapshot] = None

    @property
    def violations(self) -> List[ViolationRecord]:
        return [] if self.monitor is None else self.monitor.violations

    @property
    def n_completed(self) -> int:
        return len(self.batches)

    @property
    def passed(self) -> bool:
        """True iff every batch completed and no invariant was violated."""
        return (
            not self.quarantined
            and self.monitor is not None
            and self.monitor.ok
            and self.n_completed == self.n_batches_requested
        )

    def availability(self) -> float:
        """Pooled ACC over the completed batches (0 when none completed)."""
        submitted = sum(b.accesses_submitted for b in self.batches)
        granted = sum(b.accesses_granted for b in self.batches)
        return granted / submitted if submitted > 0 else 0.0

    def summary(self) -> str:
        lines = [
            f"chaos campaign : {self.protocol_name}",
            f"fault schedule : {self.schedule_description}",
            f"batches        : {self.n_completed}/{self.n_batches_requested} completed, "
            f"{len(self.quarantined)} quarantined",
            f"availability   : {self.availability():.4f} (over completed batches)",
        ]
        if self.monitor is not None:
            lines.append(self.monitor.summary())
        for quarantine in self.quarantined:
            lines.append(f"quarantined    : {quarantine.describe()}")
        lines.append(f"verdict        : {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def run_chaos_campaign(
    config: SimulationConfig,
    protocol: ReplicaControlProtocol,
    n_batches: Optional[int] = None,
    monitor: Optional[InvariantMonitor] = None,
    fail_fast: bool = False,
    telemetry=None,
    n_workers: int = 1,
) -> ChaosReport:
    """Run ``n_batches`` chaos batches with invariant monitoring.

    The fault schedule comes from ``config.fault_schedule`` (a campaign
    without one is just the stochastic model under the monitor — still a
    useful smoke test). Defaults to keep-going semantics: a batch that
    dies is quarantined with its seed and fault trace, and the campaign
    continues; ``fail_fast=True`` restores abort-on-first-error.

    ``telemetry`` (a :class:`~repro.telemetry.recorder.Telemetry`) is
    threaded through the engine and the monitor; when active, the report
    carries a :class:`~repro.telemetry.snapshot.TelemetrySnapshot`.

    ``n_workers > 1`` fans batches out over a process pool through the
    one batch loop (:class:`~repro.simulation.parallel.BatchLoop`,
    DESIGN.md §8): each batch runs with a fresh in-worker monitor
    configured like the campaign's, and violations, checks and telemetry
    merge back in batch index order, so the report is the serial one.
    """
    if n_batches is None:
        n_batches = config.n_batches
    if n_batches <= 0:
        raise FaultInjectionError(f"n_batches must be positive, got {n_batches}")
    telemetry = _resolve_telemetry(telemetry)
    if monitor is None:
        monitor = InvariantMonitor(telemetry=telemetry)
    loop = BatchLoop(config, protocol, telemetry, n_workers, fail_fast,
                     monitor=monitor)
    with loop:
        loop.run(range(n_batches))
    report = ChaosReport(
        protocol_name=protocol.name,
        schedule_description=(
            "none" if config.fault_schedule is None
            else config.fault_schedule.describe()),
        n_batches_requested=n_batches,
        batches=loop.batches,
        quarantined=loop.quarantined,
        monitor=monitor,
    )
    report.telemetry = loop.snapshot(
        mode="chaos",
        protocol=protocol.name,
        topology=config.topology.name,
        n_batches=n_batches,
        seed=config.seed,
        schedule=report.schedule_description,
    )
    return report

