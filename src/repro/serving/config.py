"""Configuration for the adaptive quorum serving layer.

One :class:`ServeConfig` fully determines a serving run: the topology,
the client workload, the initial quorum assignment, the robustness knobs
(retry policy, queue capacity, breakers, degradation switches), the
adaptive control-loop cadence, and the fault schedule. Identical configs
with identical seeds produce bitwise identical
:class:`~repro.serving.report.ServeReport` digests regardless of client
concurrency — the knobs below shape *outcomes*, while ``n_clients`` and
``transport_slots`` shape only wall-clock pacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ReproError
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.quorum.assignment import QuorumAssignment
from repro.serving.breakers import CircuitBreakerConfig
from repro.simulation.workload import AccessWorkload
from repro.topology.model import Topology

__all__ = ["ServeConfig"]


def _default_retry_policy() -> RetryPolicy:
    # Jittered exponential backoff with a hard per-request deadline: the
    # deadline doubles as the per-request timeout (a retry that cannot
    # start before it is not scheduled, and the request times out).
    return RetryPolicy(max_attempts=4, base_delay=0.5, multiplier=2.0,
                       max_delay=8.0, deadline=30.0, jitter=0.1)


@dataclass
class ServeConfig:
    """Everything one ``repro serve`` run needs."""

    topology: Topology
    workload: AccessWorkload
    initial_assignment: QuorumAssignment

    # Stream shape -----------------------------------------------------
    n_requests: int = 1_000_000
    n_clients: int = 1_000
    chunk_size: int = 4_096
    seed: int = 0
    #: Label for reports/golden entries (e.g. a SERVE_SCENARIOS name).
    scenario: str = "custom"

    # Robustness -------------------------------------------------------
    retry_policy: RetryPolicy = field(default_factory=_default_retry_policy)
    #: Max requests simultaneously waiting on a backoff; beyond it new
    #: arrivals are shed with cause ``overload`` (explicit backpressure).
    queue_capacity: int = 512
    #: Bounded asyncio transport queue between client feeders and the
    #: engine (wall-clock backpressure only; never affects outcomes).
    transport_slots: int = 64
    breaker: CircuitBreakerConfig = field(default_factory=CircuitBreakerConfig)
    #: Fast-reject writes while no component can form a write quorum.
    read_only_fast_reject: bool = True
    #: Serve the newest component-local copy when a read exhausts its
    #: retries (graceful degradation; counted separately from grants).
    stale_reads: bool = True
    #: Abort the run (exit 1) on the first invariant violation.
    abort_on_violation: bool = True

    # Adaptive control loop --------------------------------------------
    #: Simulated seconds between estimation/optimization ticks.
    control_interval: float = 25.0
    #: Observed simulated time before the density estimate is trusted.
    min_observation_time: float = 50.0
    #: Required estimated availability gain before a reassignment.
    improvement_threshold: float = 0.005
    forgetting_factor: float = 1.0
    #: Watchdog cadence; a pending reassignment older than
    #: ``stall_threshold`` forces re-estimation (estimator reset).
    watchdog_interval: float = 60.0
    stall_threshold: float = 150.0

    # Chaos ------------------------------------------------------------
    fault_schedule: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if self.n_requests <= 0:
            raise ReproError(f"n_requests must be positive, got {self.n_requests}")
        if self.n_clients <= 0:
            raise ReproError(f"n_clients must be positive, got {self.n_clients}")
        if self.chunk_size <= 0:
            raise ReproError(f"chunk_size must be positive, got {self.chunk_size}")
        if self.queue_capacity <= 0:
            raise ReproError(
                f"queue_capacity must be positive, got {self.queue_capacity}"
            )
        if self.transport_slots <= 0:
            raise ReproError(
                f"transport_slots must be positive, got {self.transport_slots}"
            )
        if self.control_interval <= 0:
            raise ReproError(
                f"control_interval must be positive, got {self.control_interval}"
            )
        if self.min_observation_time < 0:
            raise ReproError(
                "min_observation_time must be non-negative, got "
                f"{self.min_observation_time}"
            )
        if self.improvement_threshold < 0:
            raise ReproError(
                "improvement_threshold must be non-negative, got "
                f"{self.improvement_threshold}"
            )
        if self.watchdog_interval <= 0:
            raise ReproError(
                f"watchdog_interval must be positive, got {self.watchdog_interval}"
            )
        if self.stall_threshold <= 0:
            raise ReproError(
                f"stall_threshold must be positive, got {self.stall_threshold}"
            )
        if not 0.0 < self.forgetting_factor <= 1.0:
            raise ReproError(
                f"forgetting_factor must be in (0, 1], got {self.forgetting_factor}"
            )
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
