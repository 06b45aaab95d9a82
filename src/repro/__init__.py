"""repro — Optimal quorum assignments for replicated distributed databases.

A full reproduction of Johnson & Raab, *Finding Optimal Quorum
Assignments for Distributed Databases* (Dartmouth PCS-TR90-158, ICPP
1991): the quorum consensus and dynamic quorum-reassignment protocols,
the Figure-1 optimal-assignment algorithm with write-throughput
constraints, analytic and on-line component-size densities, a
steady-state discrete-event availability simulator, and a replicated
database data path with a one-copy-serializability checker.

Quickstart::

    from repro import (
        AvailabilityModel, QuorumAssignment, complete_density,
        optimal_read_quorum,
    )

    f = complete_density(n_sites=25, p=0.96, r=0.96)   # analytic f_i(v)
    model = AvailabilityModel(f, f)                    # uniform reads/writes
    best = optimal_read_quorum(model, alpha=0.75)
    print(best.assignment, best.availability)

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-versus-measured results.
"""

from repro.errors import (
    DensityError,
    OptimizationError,
    ProtocolError,
    QuorumConstraintError,
    ReproError,
    SerializabilityError,
    SimulationError,
    TopologyError,
    VoteAssignmentError,
)
from repro.topology import (
    Link,
    Topology,
    bus,
    erdos_renyi,
    fully_connected,
    grid,
    paper_topology,
    random_tree,
    ring,
    ring_with_chords,
    star,
)
from repro.connectivity import (
    ComponentTracker,
    NetworkState,
    component_labels,
    component_vote_totals,
)
from repro.analytic import (
    bus_density,
    complete_density,
    enumerate_density,
    montecarlo_density,
    rel,
    ring_density,
)
from repro.quorum import (
    AvailabilityModel,
    OptimizationResult,
    QuorumAssignment,
    availability_curve,
    optimal_read_quorum,
    optimize_votes,
    optimize_with_write_floor,
    weighted_availability,
)
from repro.protocols import (
    AdaptiveQuorumProtocol,
    DynamicVotingProtocol,
    MajorityConsensusProtocol,
    OnlineDensityEstimator,
    PrimaryCopyProtocol,
    QuorumConsensusProtocol,
    QuorumReassignmentProtocol,
    ReadOneWriteAllProtocol,
    ReplicaControlProtocol,
    WorkloadEstimator,
)
from repro.simulation import (
    AccessWorkload,
    NetworkTrace,
    PhasedWorkload,
    SimulationConfig,
    SimulationResult,
    TraceReplayer,
    run_simulation,
    simulate_batch,
)
from repro.replication import ReplicatedDatabase
from repro.experiments import figure_data

__version__ = "1.0.0"

__all__ = [
    "AccessWorkload",
    "AdaptiveQuorumProtocol",
    "AvailabilityModel",
    "ComponentTracker",
    "DensityError",
    "DynamicVotingProtocol",
    "Link",
    "MajorityConsensusProtocol",
    "NetworkTrace",
    "NetworkState",
    "OnlineDensityEstimator",
    "OptimizationError",
    "OptimizationResult",
    "PhasedWorkload",
    "PrimaryCopyProtocol",
    "ProtocolError",
    "QuorumAssignment",
    "QuorumConsensusProtocol",
    "QuorumConstraintError",
    "QuorumReassignmentProtocol",
    "ReadOneWriteAllProtocol",
    "ReplicaControlProtocol",
    "ReplicatedDatabase",
    "ReproError",
    "SerializabilityError",
    "SimulationConfig",
    "SimulationError",
    "SimulationResult",
    "Topology",
    "TraceReplayer",
    "TopologyError",
    "VoteAssignmentError",
    "WorkloadEstimator",
    "availability_curve",
    "bus",
    "bus_density",
    "complete_density",
    "component_labels",
    "component_vote_totals",
    "enumerate_density",
    "erdos_renyi",
    "figure_data",
    "fully_connected",
    "grid",
    "montecarlo_density",
    "optimal_read_quorum",
    "optimize_votes",
    "optimize_with_write_floor",
    "paper_topology",
    "random_tree",
    "rel",
    "ring",
    "ring_density",
    "ring_with_chords",
    "run_simulation",
    "simulate_batch",
    "star",
    "weighted_availability",
]
