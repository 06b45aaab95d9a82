"""The chunked accounting against the tracker loop it replaces.

A static quorum-consensus batch on a contracted topology with few links is
labelled a chunk of epochs at a time, with no ``ComponentTracker``
(``engine.labels_in_chunks``). ``TrackedQuorumConsensus`` overrides
``on_network_change`` with the same no-op, which keeps the very same batch
on the per-epoch tracker loop: that is the oracle. Every ``BatchResult``
field, the returned trace and a dying batch's quarantine (its trace, the
network it leaves, its message) must come out bitwise the same.

The cases cover renumbered rings with chords and zero- or multi-vote
sites, both initial states, both accounting modes and a phased workload,
warm-ups that end on an event instant, scripted instants holding several
events (repeated and no-op flips included), history blocks of a few events
and batches that die at their k-th measured epoch. The chunked side never
calls the protocol per epoch, so the death comes from the workload.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import BatchExecutionError
from repro.faults.schedule import FaultSchedule
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.simulation import processes as processes_module
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine, labels_in_chunks
from repro.simulation.events import EventKind
from repro.simulation.workload import AccessWorkload, PhasedWorkload
from tests.connectivity.test_labellers import relabelled_topologies
from tests.connectivity.test_tracker_in_engine import _fingerprint
from tests.oracles import TrackedQuorumConsensus


@st.composite
def cases(draw, dying=False):
    """``(config, assignment, history block)``; ``dying`` batches are
    ``sampled`` under one workload, which the test replaces."""
    topology = draw(relabelled_topologies())
    total = topology.total_votes
    read_quorum = draw(st.integers(1, max(1, total // 2)))
    assignment = QuorumAssignment.from_read_quorum(total, read_quorum)
    assume(labels_in_chunks(QuorumConsensusProtocol(assignment), topology))
    n = topology.n_sites
    alpha = draw(st.sampled_from([0.0, 0.3, 1.0]))
    workload = AccessWorkload.zipf(n, alpha, exponent=draw(st.sampled_from([0.0, 1.0])))
    if not dying and draw(st.booleans()):
        workload = PhasedWorkload([
            (0.0, workload),
            (draw(st.floats(1.0, 40.0)), AccessWorkload.uniform(n, 1.0 - alpha)),
        ])
    config = SimulationConfig(
        topology=topology,
        workload=workload,
        mean_time_to_failure=draw(st.sampled_from([20.0, 60.0])),
        mean_time_to_repair=draw(st.sampled_from([2.0, 8.0])),
        warmup_accesses=draw(st.sampled_from([0.0, 7.0 * n])),
        accesses_per_batch=float(draw(st.integers(20, 80)) * n),
        n_batches=1,
        seed=draw(st.integers(0, 2**16)),
        accounting="sampled" if dying else draw(st.sampled_from(["sampled", "expected"])),
        initial_state=draw(st.sampled_from(["all_up", "stationary"])),
    )
    if draw(st.booleans()):
        # Scripted instants of several events each, one of them (when there
        # is a warm-up) exactly where the warm-up ends; a target may fail
        # twice, or fail and come back within one instant.
        instants = [0.0, config.warmup_time or 1.0, 3.5, 17.0]
        kind = st.sampled_from([EventKind.SITE_FAIL, EventKind.SITE_REPAIR,
                                EventKind.LINK_FAIL, EventKind.LINK_REPAIR])
        events = draw(st.lists(st.tuples(st.sampled_from(instants), kind,
                                         st.integers(0, 2**16)),
                               min_size=1, max_size=12))
        config = config.with_fault_schedule(FaultSchedule([
            (time, kind, target % (n if kind.name.startswith("SITE")
                                   else topology.n_links))
            for time, kind, target in events]))
    return config, assignment, draw(st.sampled_from([None, 3]))


def run(config, protocol, history_block):
    engine = SimulationEngine(config, protocol, record_trace=True)
    if history_block is None:
        return engine.run_batch(0)
    with mock.patch.multiple(processes_module, _HISTORY_BLOCK=history_block,
                             _POOL_BLOCK=history_block):
        return engine.run_batch(0)


def trace_of(trace):
    return (trace.initial_site_up.tobytes(), trace.initial_link_up.tobytes(),
            list(trace.events), list(trace.sources))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_chunked_batch_is_bitwise_the_tracked_one(case):
    config, assignment, history_block = case
    chunked = run(config, QuorumConsensusProtocol(assignment), history_block)
    tracked = run(config, TrackedQuorumConsensus(assignment), history_block)
    assert _fingerprint(chunked) == _fingerprint(tracked)
    assert trace_of(chunked.trace) == trace_of(tracked.trace)


class DiesAtTheKthEpoch(AccessWorkload):
    """A workload whose ``sample_epoch`` raises on its ``k``-th call."""

    def __init__(self, n_sites, k):
        super().__init__(n_sites, 0.5, np.ones(n_sites), np.ones(n_sites))
        object.__setattr__(self, "calls", [0, k])

    def sample_epoch(self, duration, rng):
        self.calls[0] += 1
        if self.calls[0] == self.calls[1]:
            raise RuntimeError("workload died")
        return super().sample_epoch(duration, rng)


@settings(max_examples=30, deadline=None)
@given(cases(dying=True), st.integers(1, 60))
def test_a_batch_that_dies_leaves_what_the_tracker_loop_leaves(case, k):
    config, assignment, history_block = case
    n = config.topology.n_sites
    errors = []
    for protocol in (QuorumConsensusProtocol(assignment),
                     TrackedQuorumConsensus(assignment)):
        dying = replace(config, workload=DiesAtTheKthEpoch(n, k))
        try:
            run(dying, protocol, history_block)
        except BatchExecutionError as error:
            errors.append(error)
    assume(errors)  # k beyond the batch's epochs: both runs finish
    chunked, tracked = errors
    assert str(chunked) == str(tracked)
    assert chunked.sim_time == tracked.sim_time
    assert trace_of(chunked.trace) == trace_of(tracked.trace)
    assert chunked.snapshot == tracked.snapshot
    assert isinstance(chunked.__cause__, RuntimeError)


def test_the_rule_takes_the_sparse_paper_topologies_only():
    from repro.topology.generators import paper_topology

    for chords, chunked in ((0, True), (16, True), (256, False), (4949, False)):
        topology = paper_topology(chords)
        protocol = QuorumConsensusProtocol(QuorumAssignment.majority(topology.total_votes))
        assert labels_in_chunks(protocol, topology) is chunked
        assert not labels_in_chunks(TrackedQuorumConsensus(topology.total_votes),
                                    topology)
    # Grants for another T are the tracker loop's error to raise.
    topology = paper_topology(2)
    protocol = QuorumConsensusProtocol(QuorumAssignment.majority(topology.total_votes + 1))
    assert not labels_in_chunks(protocol, topology)
