"""Chaos campaigns end to end: detection, quarantine, replay, clean sweeps.

The two acceptance scenarios for the chaos subsystem live here:

1. a campaign over a protocol with a deliberately broken assignment
   (``q_r + q_w <= T``) must detect and report the violation with a
   replayable seed and fault trace;
2. a correct protocol must pass a 50-batch chaos sweep with zero
   violations and zero aborted batches (the long sweep is marked
   ``chaos``; a 5-batch smoke version runs in the default suite).
"""

import pytest

from repro.errors import BatchExecutionError, FaultInjectionError
from repro.faults.chaos import ChaosReport, run_chaos_campaign, unchecked_assignment
from repro.faults.schedule import FaultSchedule, flap, partition
from repro.protocols.majority import MajorityConsensusProtocol
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.runner import run_simulation
from repro.simulation.workload import AccessWorkload
from repro.topology.generators import ring


def chaos_config(n_sites=7, accesses=300.0, n_batches=2, seed=5, schedule=None):
    topo = ring(n_sites)
    return SimulationConfig(
        topology=topo,
        workload=AccessWorkload.uniform(n_sites, 0.5, 1.0),
        warmup_accesses=0.0,
        accesses_per_batch=accesses,
        n_batches=n_batches,
        initial_state="stationary",
        seed=seed,
        fault_schedule=schedule,
    )


def partition_schedule(horizon):
    return FaultSchedule(
        partition(ring(7), 0.2 * horizon, [[0, 1, 2]], heal_at=0.5 * horizon)
        + flap(6, period=horizon / 8.0, until=0.9 * horizon)
    )


class TestUncheckedAssignment:
    def test_builds_invalid_assignment(self):
        broken = unchecked_assignment(7, 1, 3)
        assert broken.read_quorum + broken.write_quorum <= broken.total_votes

    def test_refuses_valid_assignment(self):
        with pytest.raises(FaultInjectionError):
            unchecked_assignment(7, 4, 4)


class TestAcceptanceBrokenAssignment:
    """Acceptance 1: an injected invariant violation is caught + replayable."""

    def test_broken_assignment_is_detected_with_replay_context(self):
        config = chaos_config(schedule=partition_schedule(42.0))
        protocol = QuorumConsensusProtocol(unchecked_assignment(7, 1, 3))
        report = run_chaos_campaign(config, protocol, n_batches=2)

        assert not report.passed
        assert report.violations, "broken assignment must be detected"
        rules = {v.rule for v in report.violations}
        assert "quorum-intersection" in rules
        assert "write-write-intersection" in rules
        # Every record carries what a replay needs.
        for violation in report.violations:
            assert violation.seed == config.seed
            assert violation.batch_index in (0, 1)
            assert violation.snapshot["site_up"] is not None
        assert "FAIL" in report.summary()

    def test_clean_protocol_same_schedule_passes(self):
        config = chaos_config(schedule=partition_schedule(42.0))
        protocol = MajorityConsensusProtocol(7)
        report = run_chaos_campaign(config, protocol, n_batches=2)
        assert report.passed
        assert report.n_completed == 2
        assert not report.quarantined
        assert "PASS" in report.summary()


class TestAcceptanceCleanSweep:
    """Acceptance 2: correct protocols survive long chaos sweeps clean."""

    def _sweep(self, protocol, n_batches):
        config = chaos_config(accesses=150.0, n_batches=n_batches,
                              schedule=partition_schedule(21.0))
        report = run_chaos_campaign(config, protocol, n_batches=n_batches)
        assert report.passed, report.summary()
        assert report.monitor.checks_run > 0
        assert not report.violations
        assert not report.quarantined
        assert report.n_completed == n_batches

    def test_smoke_sweep_majority(self):
        self._sweep(MajorityConsensusProtocol(7), n_batches=5)

    def test_smoke_sweep_reassignment(self):
        self._sweep(
            QuorumReassignmentProtocol(7, QuorumAssignment.majority(7)),
            n_batches=5,
        )

    @pytest.mark.chaos
    def test_50_batch_sweep_majority(self):
        self._sweep(MajorityConsensusProtocol(7), n_batches=50)

    @pytest.mark.chaos
    def test_50_batch_sweep_reassignment(self):
        self._sweep(
            QuorumReassignmentProtocol(7, QuorumAssignment.majority(7)),
            n_batches=50,
        )


class _DyingProtocol(MajorityConsensusProtocol):
    """Dies mid-measurement in selected batches (chaos for the harness).

    Dies in ``on_network_change`` because the engine calls it exactly once
    per topology event — a deterministic count, unaffected by whether a
    monitor (which calls ``grant_masks`` on its own) is attached. That
    keeps the abort point identical between a campaign run and a replay.
    """

    def __init__(self, total_votes, die_in_batches, after_events=5):
        super().__init__(total_votes)
        self.die_in_batches = set(die_in_batches)
        self.after_events = after_events
        self._batch = -1
        self._events = 0

    def reset(self):
        super().reset()
        self._batch += 1
        self._events = 0

    def on_network_change(self, tracker):
        self._events += 1
        if self._batch in self.die_in_batches and self._events > self.after_events:
            raise RuntimeError("injected protocol crash")
        return super().on_network_change(tracker)


class TestQuarantine:
    def test_dying_batch_is_quarantined_with_trace(self):
        schedule = partition_schedule(42.0)
        config = chaos_config(schedule=schedule)
        protocol = _DyingProtocol(7, die_in_batches=[0])
        report = run_chaos_campaign(config, protocol, n_batches=2)

        assert not report.passed
        assert report.n_completed == 1  # batch 1 still ran
        (quarantine,) = report.quarantined
        assert quarantine.batch_index == 0
        assert quarantine.seed == config.seed
        assert quarantine.error_type == "RuntimeError"
        assert "injected protocol crash" in quarantine.message
        assert quarantine.trace is not None
        assert len(quarantine.trace.chaos_events()) > 0  # fault trace kept
        assert quarantine.snapshot["site_up"]
        assert "batch 0" in quarantine.describe()

    def test_fail_fast_raises_instead(self):
        config = chaos_config(schedule=partition_schedule(42.0))
        protocol = _DyingProtocol(7, die_in_batches=[0])
        with pytest.raises(BatchExecutionError) as excinfo:
            run_chaos_campaign(config, protocol, n_batches=2, fail_fast=True)
        assert excinfo.value.batch_index == 0

    def test_replay_reproduces_the_failure(self):
        config = chaos_config(schedule=partition_schedule(42.0))
        report = run_chaos_campaign(
            config, _DyingProtocol(7, die_in_batches=[0]), n_batches=1
        )
        (quarantine,) = report.quarantined
        # A fresh protocol instance + the quarantined batch index replays
        # the exact same abort (batch streams derive from (seed, index)).
        engine = SimulationEngine(config, _DyingProtocol(7, die_in_batches=[0]),
                                  record_trace=True)
        with pytest.raises(BatchExecutionError) as excinfo:
            engine.run_batch(quarantine.batch_index)
        replayed = excinfo.value
        assert replayed.batch_index == quarantine.batch_index
        assert replayed.sim_time == quarantine.sim_time
        assert replayed.trace.events == quarantine.trace.events

    def test_replay_of_clean_batch_matches_campaign(self):
        config = chaos_config(schedule=partition_schedule(42.0))
        report = run_chaos_campaign(config, MajorityConsensusProtocol(7),
                                    n_batches=1)
        replayed = SimulationEngine(config, MajorityConsensusProtocol(7),
                                    record_trace=True).run_batch(0)
        original = report.batches[0]
        assert replayed.accesses_granted == original.accesses_granted
        assert replayed.accesses_submitted == original.accesses_submitted
        assert len(replayed.trace.chaos_events()) > 0

    def test_runner_keep_going_quarantines_and_continues(self):
        config = chaos_config(n_batches=3, schedule=partition_schedule(42.0))
        protocol = _DyingProtocol(7, die_in_batches=[1])
        result = run_simulation(config, protocol, fail_fast=False)
        assert len(result.batches) == 2
        assert len(result.quarantined) == 1
        assert result.quarantined[0].batch_index == 1
        assert "quarantined" in result.summary()

    def test_runner_fail_fast_is_default(self):
        config = chaos_config(n_batches=3, schedule=partition_schedule(42.0))
        protocol = _DyingProtocol(7, die_in_batches=[1])
        with pytest.raises(BatchExecutionError):
            run_simulation(config, protocol)


class TestReportShape:
    def test_availability_pools_completed_batches(self):
        config = chaos_config()
        report = run_chaos_campaign(config, MajorityConsensusProtocol(7),
                                    n_batches=2)
        assert 0.0 < report.availability() <= 1.0

    def test_empty_report_has_zero_availability(self):
        report = ChaosReport("p", "s", 1)
        assert report.availability() == 0.0
        assert not report.passed

    def test_rejects_nonpositive_batches(self):
        config = chaos_config()
        with pytest.raises(FaultInjectionError):
            run_chaos_campaign(config, MajorityConsensusProtocol(7), n_batches=0)
