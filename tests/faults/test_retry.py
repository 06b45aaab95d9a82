"""RetryPolicy mechanics and the database's monitor routing.

Retries themselves are the serving sequencer's (tests/serving).
"""

import pytest

from repro.errors import FaultInjectionError, SerializabilityError
from repro.faults.chaos import unchecked_assignment
from repro.faults.monitor import InvariantMonitor
from repro.faults.retry import RetryPolicy
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.replication.database import ReplicatedDatabase
from repro.rng import as_generator
from repro.topology.generators import ring


class TestPolicy:
    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(max_attempts=6, base_delay=1.0, multiplier=2.0,
                             max_delay=5.0)
        delays = [policy.backoff(k) for k in range(1, 6)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(base_delay=2.0, multiplier=1.0, max_delay=2.0,
                             jitter=0.5)
        rng = as_generator(0)
        for _ in range(50):
            assert 1.0 <= policy.backoff(1, rng) <= 3.0

    def test_jittered_backoff_is_seed_deterministic(self):
        policy = RetryPolicy(jitter=0.3)
        a = [policy.backoff(k, as_generator(5)) for k in range(1, 4)]
        b = [policy.backoff(k, as_generator(5)) for k in range(1, 4)]
        assert a == b

    def test_deadline(self):
        policy = RetryPolicy(deadline=10.0)
        assert policy.within_deadline(9.99)
        assert not policy.within_deadline(10.0)
        assert RetryPolicy(deadline=None).within_deadline(1e9)

    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(FaultInjectionError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(FaultInjectionError):
            RetryPolicy(base_delay=4.0, max_delay=2.0)
        with pytest.raises(FaultInjectionError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(FaultInjectionError):
            RetryPolicy(deadline=0.0)
        with pytest.raises(FaultInjectionError):
            RetryPolicy().backoff(0)

    def test_describe(self):
        assert "attempts=4" in RetryPolicy().describe()


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
