"""Integration tests for the replicated database data path."""

from collections import Counter

import numpy as np
import pytest

from repro.errors import ReproError, SerializabilityError
from repro.faults.chaos import unchecked_assignment
from repro.faults.monitor import InvariantMonitor
from repro.protocols.base import ReplicaControlProtocol
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.replication.database import AccessOutcome, CopyState, ReplicatedDatabase
from repro.topology.generators import ring, ring_with_chords
from tests.oracles import newest_copy_scan


def make_db(n=5, q_r=2, initial="v0"):
    topo = ring(n)
    proto = QuorumConsensusProtocol(QuorumAssignment.from_read_quorum(n, q_r))
    return ReplicatedDatabase(topo, proto, initial_value=initial)


class TestHappyPath:
    def test_initial_read(self):
        db = make_db()
        res = db.submit_read(0)
        assert res.granted
        assert res.value == "v0"
        assert res.timestamp == 0

    def test_write_then_read_any_site(self):
        db = make_db()
        w = db.submit_write(2, "v1")
        assert w.granted
        assert len(w.updated_sites) == 5
        for site in range(5):
            assert db.submit_read(site).value == "v1"

    def test_timestamps_monotone(self):
        db = make_db()
        t1 = db.submit_write(0, "a").timestamp
        t2 = db.submit_write(1, "b").timestamp
        assert t2 > t1

    def test_history_and_counts(self):
        db = make_db()
        results = [db.submit_read(0), db.submit_write(1, "x")]
        db.fail_site(3)
        results.append(db.submit_read(3))
        counts = Counter(f"{r.op}:{r.outcome.value}" for r in results)
        assert counts == {"read:granted": 1, "write:granted": 1,
                          "read:site_down": 1}


class TestDenials:
    def test_down_site_denied(self):
        db = make_db()
        db.fail_site(2)
        res = db.submit_read(2)
        assert res.outcome is AccessOutcome.SITE_DOWN

    def test_no_quorum_denied(self):
        db = make_db(n=5, q_r=2)  # q_w = 4
        # Isolate site 0: component of 1 vote < q_r = 2.
        db.fail_link(0, 1)
        db.fail_link(4, 0)
        res = db.submit_read(0)
        assert res.outcome is AccessOutcome.NO_QUORUM
        assert res.component_votes == 1

    def test_partition_blocks_minority_writes(self):
        db = make_db(n=5, q_r=2)  # q_w = 4
        db.fail_link(0, 1)
        db.fail_link(2, 3)
        # Component {1, 2} has 2 votes: reads ok, writes denied.
        assert db.submit_read(1).granted
        assert db.submit_write(1, "nope").outcome is AccessOutcome.NO_QUORUM


class TestConsistencyAcrossPartitions:
    def test_reads_after_heal_see_partition_write(self):
        db = make_db(n=5, q_r=2)  # q_w = 4
        db.fail_site(4)
        # Component {0,1,2,3} has 4 votes: write allowed.
        assert db.submit_write(0, "during-partition").granted
        db.repair_site(4)
        # Site 4's copy is stale, but a read anywhere must return the new
        # value because the read path takes the newest copy in the component.
        assert db.submit_read(4).value == "during-partition"

    def test_stale_copy_visible_in_raw_store(self):
        db = make_db(n=5, q_r=2)
        db.fail_site(4)
        db.submit_write(0, "new")
        assert db.copies[4].timestamp == 0   # missed the write
        assert db.copies[0].timestamp == 1   # the submitting site's own copy

    def test_serializability_checker_catches_broken_protocol(self):
        """A deliberately unsafe protocol (grants everything) must trip the
        one-copy-serializability check after a partitioned write."""

        class YesProtocol(ReplicaControlProtocol):
            name = "always-yes"

            def grant_masks(self, tracker):
                up = tracker.labels >= 0
                return up, up.copy()

        topo = ring(4)
        db = ReplicatedDatabase(topo, YesProtocol(), initial_value="v0")
        # Partition into {0,1} and {2,3}.
        db.fail_link(1, 2)
        db.fail_link(3, 0)
        db.submit_write(0, "left")     # updates copies at 0, 1 only
        with pytest.raises(SerializabilityError):
            db.submit_read(2)          # sees stale v0: checker fires

    def test_monitor_records_the_stale_read(self):
        class YesProtocol(ReplicaControlProtocol):
            name = "always-yes"

            def grant_masks(self, tracker):
                up = tracker.labels >= 0
                return up, up.copy()

        topo = ring(4)
        monitor = InvariantMonitor()
        db = ReplicatedDatabase(topo, YesProtocol(), initial_value="v0",
                                monitor=monitor)
        db.fail_link(1, 2)
        db.fail_link(3, 0)
        db.submit_write(0, "left")
        stale = db.submit_read(2)
        assert stale.granted
        assert stale.value == "v0"  # the stale copy really was served
        assert [v.rule for v in monitor.violations] == ["one-copy-serializability"]


class TestWithDynamicProtocol:
    def test_qr_protocol_drives_database(self):
        topo = ring(5)
        proto = QuorumReassignmentProtocol(5, QuorumAssignment.majority(5))
        db = ReplicatedDatabase(topo, proto, initial_value=0)
        assert db.submit_write(0, 1).granted
        # Reassign to ROWA from the full network, then partition.
        assert proto.try_reassign(db.tracker, 0, QuorumAssignment.read_one_write_all(5))
        db.fail_site(4)
        # ROWA: writes need all 5 votes -> denied; reads need 1 -> granted.
        assert db.submit_write(0, 2).outcome is AccessOutcome.NO_QUORUM
        assert db.submit_read(0).value == 1


class TestValidation:
    def test_zero_vote_sites_hold_copies(self):
        # Partial replication is zero-vote sites: sites 1 and 3 count
        # toward no quorum but submit accesses and receive writes.
        topo = ring(5).with_votes([1, 0, 1, 0, 1])
        proto = QuorumConsensusProtocol(QuorumAssignment(3, 2, 2))
        db = ReplicatedDatabase(topo, proto, initial_value="v")
        res = db.submit_read(1)
        assert res.granted
        assert res.value == "v"
        assert res.component_votes == 3
        assert db.submit_write(3, "w").updated_sites == (0, 1, 2, 3, 4)
        # Cut off zero-vote site 1 with vote site 0: 1 vote < q_r = 2.
        db.fail_link(1, 2)
        db.fail_link(4, 0)
        assert db.submit_read(1).outcome is AccessOutcome.NO_QUORUM
        assert db.submit_read(3).value == "w"

    def test_unknown_site(self):
        db = make_db()
        for site in (99, -1):
            with pytest.raises(ReproError):
                db.submit_read(site)
            with pytest.raises(ReproError):
                db.peek_newest(site)

    def test_stale_write_rejected(self):
        # The write path installs increasing timestamps only; a copy newer
        # than the commit being installed is a protocol bug.
        db = make_db()
        db.copies[3] = CopyState("future", 1)
        db._view_key = None
        with pytest.raises(ReproError, match="stale write at site 3"):
            db.submit_write(0, "now")
        assert db.copies[3] == CopyState("future", 1)

    def test_time_advances(self):
        db = make_db()
        db.advance_time(2.5)
        assert db.submit_read(0).time == 2.5
        with pytest.raises(Exception):
            db.advance_time(-1.0)


WALK_TOPOLOGY = ring_with_chords(8, 1)


def walk(assignment, seed, steps=600, installs=True):
    """A seeded random walk of faults, repairs, installs, reads and writes.

    After every step the cached newest copy of each site's component must
    equal a scan of the copies, and the protocol's ``newest_version`` must
    equal ``site_version.max()``. Step ``i`` runs at time ``i``; 1SR
    mismatches are recorded, not raised. Returns the access results and
    the ``(time, detail)`` of every recorded violation.
    """
    rng = np.random.default_rng(seed)
    topo = WALK_TOPOLOGY
    qr = QuorumReassignmentProtocol(topo.n_sites, assignment)
    monitor = InvariantMonitor(record_snapshots=False)
    db = ReplicatedDatabase(topo, qr, initial_value=0, monitor=monitor)
    T = topo.total_votes
    results = []
    for step in range(steps):
        site = int(rng.integers(topo.n_sites))
        # Repairs outweigh failures so quorums keep forming.
        move = "i" if installs and rng.random() < 0.1 else "fFFFFlLLLLrrrww"[
            int(rng.integers(15))]
        if move == "f":
            db.fail_site(site)
        elif move == "F":
            db.repair_site(site)
        elif move in "lL":
            link = topo.links[int(rng.integers(topo.n_links))]
            (db.fail_link if move == "l" else db.repair_link)(link.a, link.b)
        elif move == "r":
            results.append(db.submit_read(site))
        elif move == "w":
            results.append(db.submit_write(site, step))
        else:
            q_r = int(rng.integers(1, T // 2 + 1))
            qr.try_reassign(db.tracker, site, QuorumAssignment.from_read_quorum(T, q_r))
        assert qr.newest_version == int(qr.site_version.max()), step
        for s in range(topo.n_sites):
            assert db.peek_newest(s) == newest_copy_scan(db, s), (step, s)
        db.advance_time(1.0)
    return results, [(v.time, v.detail) for v in monitor.violations]


def rescan_every_read(monkeypatch):
    monkeypatch.setattr(ReplicatedDatabase, "_newest_copy",
                        lambda db, view: db._scan_newest(view.replicas))


def outcomes(results):
    return [(r.op, r.outcome, r.value, r.timestamp) for r in results]


class TestNewestCopyCache:
    """The newest copy cached in the decision view is an optimisation only."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cached_newest_equals_scan_on_a_random_walk(self, seed, monkeypatch):
        # An install moves no copies, so even this valid start may record
        # a 1SR mismatch after a reassignment; the cache must not change
        # whether or where.
        assignment = QuorumAssignment.from_read_quorum(WALK_TOPOLOGY.total_votes, 3)
        cached, violations = walk(assignment, seed)
        granted = [kind for kind, outcome, _, _ in outcomes(cached)
                   if outcome is AccessOutcome.GRANTED]
        assert granted.count("read") > 30
        assert granted.count("write") > 10
        rescan_every_read(monkeypatch)
        rescanned, rescanned_violations = walk(assignment, seed)
        assert outcomes(cached) == outcomes(rescanned)
        assert violations == rescanned_violations

    def test_checker_fires_at_the_same_step_with_and_without_cache(
            self, monkeypatch):
        # q_w = 4 <= T/2 and q_r + q_w < T: disjoint components may both
        # write, and a read quorum may miss the last write.
        broken = unchecked_assignment(WALK_TOPOLOGY.total_votes, 2, 4)
        _, violations = walk(broken, seed=7, installs=False)
        assert len(violations) > 1
        rescan_every_read(monkeypatch)
        assert walk(broken, seed=7, installs=False)[1] == violations
