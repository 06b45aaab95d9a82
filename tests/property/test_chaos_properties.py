"""Property tests for the chaos subsystem.

The headline property is the executable form of the paper's correctness
claim under adversarial conditions: for ANY scripted fault schedule (and
any retry on the data path), a correct protocol preserves
one-copy serializability and never grants writes in two disjoint
components. The invariant monitor is the judge — the same one chaos
campaigns use — so these tests also guard the monitor against false
positives on correct protocols.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.chaos import run_chaos_campaign
from repro.faults.schedule import FaultSchedule, cascade, correlated, flap, partition
from repro.protocols.majority import MajorityConsensusProtocol
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.replication.database import ReplicatedDatabase
from repro.rng import as_generator
from repro.serving import service
from repro.simulation.config import SimulationConfig
from repro.simulation.events import EventKind
from repro.simulation.workload import AccessWorkload
from repro.topology.generators import ring

N_SITES = 7
TOPOLOGY = ring(N_SITES)
HORIZON = 120.0 / N_SITES  # accesses_per_batch / aggregate rate

times = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
durations = st.floats(0.5, 5.0, allow_nan=False, allow_infinity=False)
site_sets = st.sets(st.integers(0, N_SITES - 1), min_size=1, max_size=3)

# Each strategy draws one raw event list; a schedule is one to three of
# them concatenated.
site_crashes = st.builds(
    lambda at, sites, heal: (
        [(at, EventKind.SITE_FAIL, s) for s in sorted(sites)]
        + [(at + heal, EventKind.SITE_REPAIR, s) for s in sorted(sites)]
    ),
    times, site_sets, durations,
)
partitions = st.builds(
    lambda at, group, heal: partition(TOPOLOGY, at, [sorted(group)],
                                      heal_at=at + heal),
    times, site_sets, durations,
)
flappers = st.builds(
    lambda site, period, until: flap(site, period=period, until=until),
    st.integers(0, N_SITES - 1),
    st.floats(1.0, 4.0),
    st.floats(8.0, HORIZON),
)
cascades = st.builds(
    lambda start, sites, delay, heal: cascade(
        start, sorted(sites), delay,
        heal_at=start + delay * (len(sites) - 1) + heal,
    ),
    times, site_sets, st.floats(0.0, 1.0), durations,
)
correlated_groups = st.builds(
    lambda sites, at, down: correlated(sorted(sites), [at], down_time=down),
    site_sets, times, durations,
)

fault_schedules = st.lists(
    st.one_of(site_crashes, partitions, flappers, cascades, correlated_groups),
    min_size=1, max_size=3,
).map(lambda lists: FaultSchedule([event for events in lists for event in events]))


def chaos_config(schedule, seed):
    return SimulationConfig(
        topology=TOPOLOGY,
        workload=AccessWorkload.uniform(N_SITES, 0.5, 1.0),
        warmup_accesses=0.0,
        accesses_per_batch=120.0,
        n_batches=1,
        initial_state="stationary",
        seed=seed,
        fault_schedule=schedule,
    )


class TestAnyScheduleIsSurvived:
    """A correct protocol passes ANY scripted fault scenario clean."""

    @settings(max_examples=15, deadline=None)
    @given(schedule=fault_schedules, seed=st.integers(0, 2**16))
    def test_majority_consensus(self, schedule, seed):
        report = run_chaos_campaign(
            chaos_config(schedule, seed), MajorityConsensusProtocol(N_SITES)
        )
        assert report.passed, report.summary()

    @settings(max_examples=15, deadline=None)
    @given(schedule=fault_schedules, seed=st.integers(0, 2**16))
    def test_quorum_reassignment(self, schedule, seed):
        protocol = QuorumReassignmentProtocol(
            N_SITES, QuorumAssignment.majority(N_SITES)
        )
        report = run_chaos_campaign(chaos_config(schedule, seed), protocol)
        assert report.passed, report.summary()


#: Operations for the database-level interleaving property.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(0, 5)),
        st.tuples(st.just("write"), st.integers(0, 5)),
        st.tuples(st.just("flip_site"), st.integers(0, 5)),
        st.tuples(st.just("flip_link"), st.integers(0, 5)),
    ),
    min_size=1, max_size=40,
)


class TestRetryPreservesSerializability:
    """Any op interleaving: the 1SR checker never trips.

    The database retries nothing itself; a retry is the caller submitting
    a denied access again after the network moved, and the op lists below
    are full of those. Without a monitor the checker raises on the first
    granted read that misses the newest committed write or the first
    non-monotone commit — so simply completing the run IS the assertion.
    """

    @settings(max_examples=40, deadline=None)
    @given(operations=ops)
    def test_no_serializability_violation(self, operations):
        topo = ring(6)
        db = ReplicatedDatabase(topo, MajorityConsensusProtocol(6), initial_value=0)
        writes = 0
        for kind, target in operations:
            if kind == "read":
                if db.state.site_up[target]:
                    result = db.submit_read(target)
                    if result.granted:
                        assert result.value == writes
            elif kind == "write":
                if db.state.site_up[target]:
                    result = db.submit_write(target, writes + 1)
                    if result.granted:
                        writes += 1
            elif kind == "flip_site":
                db.state.set_site(target, not db.state.site_up[target])
                db._network_changed()
            else:
                db.state.set_link(target, not db.state.link_up[target])
                db._network_changed()

    @settings(max_examples=60, deadline=None)
    @given(attempt=st.integers(1, 10), seed=st.integers(0, 2**16))
    def test_backoff_is_bounded(self, attempt, seed):
        delay = service.backoff(attempt, as_generator(seed))
        cap = service.RETRY_MAX_DELAY * (1.0 + service.RETRY_JITTER)
        assert 0.0 < delay <= cap
        nominal = min(service.RETRY_BASE_DELAY
                      * service.RETRY_MULTIPLIER ** (attempt - 1),
                      service.RETRY_MAX_DELAY)
        assert abs(delay - nominal) <= nominal * service.RETRY_JITTER
