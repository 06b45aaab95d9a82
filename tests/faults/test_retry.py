"""Retry backoff mechanics and the database's monitor routing.

The retry settings are constants of ``repro.serving.service`` and
:func:`~repro.serving.service.backoff` is their one function; retries
themselves are the serving sequencer's (tests/serving).
"""

import pytest

from repro.errors import ReproError, SerializabilityError
from repro.faults.chaos import unchecked_assignment
from repro.faults.monitor import InvariantMonitor
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.replication.database import ReplicatedDatabase
from repro.rng import as_generator
from repro.serving import ServeConfig, run_serve, serving_schedule
from repro.serving import service
from repro.serving.service import backoff
from repro.simulation.workload import AccessWorkload
from repro.topology.generators import ring, ring_with_chords


class TestPolicy:
    def test_backoff_grows_then_caps(self, monkeypatch):
        monkeypatch.setattr(service, "RETRY_BASE_DELAY", 1.0)
        monkeypatch.setattr(service, "RETRY_MAX_DELAY", 5.0)
        monkeypatch.setattr(service, "RETRY_JITTER", 0.0)
        delays = [backoff(k, as_generator(0)) for k in range(1, 6)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_shipped_backoff_stays_in_its_jitter_band(self):
        rng = as_generator(0)
        for attempt, nominal in ((1, 0.5), (2, 1.0), (3, 2.0), (4, 4.0), (5, 8.0), (9, 8.0)):
            for _ in range(20):
                assert 0.9 * nominal <= backoff(attempt, rng) <= 1.1 * nominal

    def test_jitter_stays_in_band(self, monkeypatch):
        monkeypatch.setattr(service, "RETRY_BASE_DELAY", 2.0)
        monkeypatch.setattr(service, "RETRY_MULTIPLIER", 1.0)
        monkeypatch.setattr(service, "RETRY_JITTER", 0.5)
        rng = as_generator(0)
        draws = [backoff(1, rng) for _ in range(50)]
        assert all(1.0 <= d <= 3.0 for d in draws)
        assert len(set(draws)) == 50

    def test_jittered_backoff_is_seed_deterministic(self):
        a = [backoff(k, as_generator(5)) for k in range(1, 4)]
        b = [backoff(k, as_generator(5)) for k in range(1, 4)]
        assert a == b

    def test_one_uniform_draw_per_backoff(self):
        rng, twin = as_generator(3), as_generator(3)
        for attempt in (1, 2, 3):
            assert backoff(attempt, rng) == (
                min(0.5 * 2.0 ** (attempt - 1), 8.0) * twin.uniform(0.9, 1.1))

    def test_deadline(self, monkeypatch):
        topology = ring_with_chords(9, 2)

        def run():
            config = ServeConfig(
                topology=topology,
                workload=AccessWorkload.uniform(9, 0.7),
                initial_assignment=QuorumAssignment.from_read_quorum(
                    topology.total_votes, 1),
                n_requests=6_000, seed=11, scenario="correlated")
            config.fault_schedule = serving_schedule(
                "correlated", topology, config.horizon)
            return run_serve(config)

        assert run().retries_scheduled > 0
        # No backoff is shorter than 0.45: past a 0.4 deadline no retry
        # can start, and every denied request times out on its first try.
        monkeypatch.setattr(service, "RETRY_DEADLINE", 0.4)
        report = run()
        assert report.retries_scheduled == 0
        assert report.outcomes["timeout"] > 0
        assert report.attempt_counts.max() == 1

    def test_validation(self):
        with pytest.raises(ReproError, match="1-based"):
            backoff(0, as_generator(0))


class TestMonitorRouting:
    def broken_partitioned_db(self, monitor=None):
        topo = ring(6)
        protocol = QuorumConsensusProtocol(unchecked_assignment(6, 1, 2))
        db = ReplicatedDatabase(topo, protocol, initial_value="v0",
                                monitor=monitor)
        db.fail_link(2, 3)
        db.fail_link(5, 0)  # {0,1,2} vs {3,4,5}
        return db

    def test_without_monitor_mismatch_raises(self):
        db = self.broken_partitioned_db()
        db.submit_write(0, "x")  # commits in {0,1,2} only
        with pytest.raises(SerializabilityError):
            db.submit_read(3)  # {3,4,5} still sees v0

    def test_with_monitor_mismatch_is_recorded(self):
        monitor = InvariantMonitor()
        db = self.broken_partitioned_db(monitor=monitor)
        db.submit_write(0, "x")
        result = db.submit_read(3)  # records instead of raising
        assert result.granted
        assert result.value == "v0"  # the stale value really was returned
        rules = [v.rule for v in monitor.violations]
        assert rules == ["one-copy-serializability"]
