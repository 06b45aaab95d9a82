"""Denial-cause attribution on the database access path.

The scripted scenario exercises every audit cause the paper's protocols
can produce — ``site_down``, ``no_quorum``, and (for versioned QR
protocols) ``stale_assignment`` — and asserts the per-cause volumes sum
exactly to the ACC denial count.
"""

import pytest

from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.replication.database import AccessOutcome, ReplicatedDatabase
from repro.telemetry.recorder import Telemetry
from repro.topology.generators import ring


def make_db(protocol, telemetry):
    return ReplicatedDatabase(ring(5), protocol, initial_value="v0",
                              telemetry=telemetry)


def isolate_site_zero(db):
    """Cut ring(5) links (0,1) and (4,0): site 0 alone vs {1,2,3,4}."""
    db.fail_link(0, 1)
    db.fail_link(4, 0)


class TestStaticProtocolAttribution:
    def test_site_down_attributed(self):
        tel = Telemetry()
        db = make_db(QuorumConsensusProtocol(QuorumAssignment(5, 3, 3)), tel)
        db.fail_site(2)
        assert not db.submit_read(2).granted
        assert tel.audit.denials_by_reason() == {"site_down": 1.0}
        (rec,) = tel.audit.records
        assert rec.site == 2 and rec.op == "read"

    def test_no_quorum_attributed_with_quorums_in_force(self):
        tel = Telemetry()
        db = make_db(QuorumConsensusProtocol(QuorumAssignment(5, 3, 3)), tel)
        isolate_site_zero(db)
        assert not db.submit_read(0).granted
        assert not db.submit_write(0, "x").granted
        assert tel.audit.denials_by_reason() == {"no_quorum": 2.0}
        for rec in tel.audit.records:
            assert rec.component_votes == 1
            assert rec.component_size == 1
            assert rec.read_quorum == 3 and rec.write_quorum == 3  # q_r+q_w>T

    def test_granted_recorded_with_context(self):
        tel = Telemetry()
        db = make_db(QuorumConsensusProtocol(QuorumAssignment(5, 3, 3)), tel)
        assert db.submit_write(1, "x").granted
        (rec,) = tel.audit.records
        assert rec.granted and rec.component_votes == 5


def partitioned_qr_db(telemetry):
    qr = QuorumReassignmentProtocol(5, QuorumAssignment(5, 3, 3))
    db = make_db(qr, telemetry)
    isolate_site_zero(db)
    # The majority component installs a new assignment (version 2);
    # isolated site 0 still holds version 1.
    assert qr.try_reassign(db.tracker, 1, QuorumAssignment(5, 2, 4))
    return db, qr


def partitioned_qr_script(db):
    """One access per cause on :func:`partitioned_qr_db`; the results."""
    results = [
        db.submit_read(0),          # stale_assignment (isolated, version 1)
        db.submit_write(0, "x"),    # stale_assignment
    ]
    db.fail_site(3)                 # splits the majority side: {1,2} | {4}
    results += [
        db.submit_read(3),          # site_down
        db.submit_read(1),          # granted: 2 votes >= q_r=2
        db.submit_write(2, "y"),    # no_quorum: 2 votes < q_w=4, version current
    ]
    return results


class TestStaleAssignmentAttribution:
    def _partitioned_qr_db(self):
        tel = Telemetry()
        db, qr = partitioned_qr_db(tel)
        return tel, db, qr

    def test_stale_component_denial_refined(self):
        tel, db, qr = self._partitioned_qr_db()
        assert not db.submit_read(0).granted
        assert tel.audit.denials_by_reason() == {"stale_assignment": 1.0}
        (rec,) = tel.audit.records
        assert rec.assignment_version == 1
        assert qr.max_version() == 2

    def test_current_component_denial_stays_no_quorum(self):
        tel = Telemetry()
        qr = QuorumReassignmentProtocol(5, QuorumAssignment(5, 3, 3))
        db = make_db(qr, tel)
        isolate_site_zero(db)
        # No reassignment happened: both components hold version 1, so a
        # denial at site 0 is a plain partition cost.
        assert not db.submit_read(0).granted
        assert tel.audit.denials_by_reason() == {"no_quorum": 1.0}

    def test_reasons_sum_to_acc_denial_count(self):
        tel, db, _ = self._partitioned_qr_db()
        results = partitioned_qr_script(db)
        granted = sum(r.granted for r in results)
        denied = len(results) - granted
        by_reason = tel.audit.denials_by_reason()
        assert sum(by_reason.values()) == denied == 4
        assert by_reason == {"stale_assignment": 2.0, "site_down": 1.0,
                             "no_quorum": 1.0}
        assert tel.audit.granted() == granted == 1
        assert tel.audit.submitted() == denied + granted
        assert tel.audit.availability() == pytest.approx(granted / (denied + granted))

    @pytest.mark.parametrize("recorder", [True, False])
    def test_outcome_is_the_audited_cause(self, recorder):
        # The refinement is the database's decision, not the recorder's:
        # the result says stale_assignment with or without one.
        db, _ = partitioned_qr_db(Telemetry() if recorder else None)
        results = partitioned_qr_script(db)
        assert [r.outcome for r in results[:2]] == [
            AccessOutcome.STALE_ASSIGNMENT] * 2
        audited, _ = partitioned_qr_db(Telemetry())
        partitioned_qr_script(audited)
        assert [(r.op, r.site, r.outcome.value) for r in results] == [
            (rec.op, rec.site, rec.reason) for rec in audited.telemetry.audit.records]

    def test_metrics_counter_mirrors_audit(self):
        tel, db, _ = self._partitioned_qr_db()
        db.submit_read(0)
        db.submit_read(1)
        counter = tel.metrics.get("repro_db_accesses_total")
        assert counter.value(op="read", outcome="stale_assignment") == 1
        assert counter.value(op="read", outcome="granted") == 1


class TestDisabledRecorder:
    def test_null_recorder_audits_nothing(self):
        db = ReplicatedDatabase(
            ring(5),
            QuorumConsensusProtocol(QuorumAssignment(5, 3, 3)),
            initial_value="v0",
        )
        db.submit_read(0)
        db.fail_site(1)
        db.submit_read(1)
        assert len(db.telemetry.audit) == 0
        assert not db.telemetry.enabled
