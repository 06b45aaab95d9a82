"""Configuration for the adaptive quorum serving layer.

One :class:`ServeConfig` fully determines a serving run: the topology,
the client workload, the initial quorum assignment, the stream's size
and seed, and the fault schedule. The serving settings no caller sets
(retries, queue, breakers, control-loop cadence, stream chunking) are
constants in :mod:`repro.serving.service`. Identical configs produce
bitwise identical :class:`~repro.serving.report.ServeReport` digests:
one sequencer serves every request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError
from repro.faults.schedule import FaultSchedule
from repro.quorum.assignment import QuorumAssignment
from repro.simulation.workload import AccessWorkload
from repro.topology.model import Topology

__all__ = ["ServeConfig"]


@dataclass
class ServeConfig:
    """Everything one ``repro serve`` run needs."""

    topology: Topology
    workload: AccessWorkload
    initial_assignment: QuorumAssignment

    n_requests: int = 1_000_000
    #: Has no effect: the service is one sequencer. Kept (and still
    #: checked positive) for callers that pass it.
    n_clients: int = 1_000
    seed: int = 0
    #: Label for reports/golden entries (e.g. a SERVE_SCENARIOS name).
    scenario: str = "custom"
    fault_schedule: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if self.n_requests <= 0:
            raise ReproError(f"n_requests must be positive, got {self.n_requests}")
        if self.n_clients <= 0:
            raise ReproError(f"n_clients must be positive, got {self.n_clients}")
        if self.initial_assignment.total_votes != self.topology.total_votes:
            raise ReproError(
                f"assignment is for T={self.initial_assignment.total_votes}, "
                f"topology has T={self.topology.total_votes}"
            )
        if self.workload.n_sites != self.topology.n_sites:
            raise ReproError(
                f"workload covers {self.workload.n_sites} sites, topology has "
                f"{self.topology.n_sites}"
            )

    @property
    def horizon(self) -> float:
        """Expected simulated duration of the stream (for scheduling faults)."""
        return self.n_requests / self.workload.aggregate_rate
