"""End-to-end telemetry through the simulation stack.

The load-bearing assertion is the ISSUE acceptance criterion: on a
multi-batch ring run, the audit log's per-cause volumes reconcile
*exactly* with the engine's reported ACC numerator and denominator.
"""

import pytest

from repro.experiments.paper import ExperimentScale
from repro.faults.chaos import run_chaos_campaign
from repro.faults.schedule import FaultSchedule, partition
from repro.protocols.adaptive import AdaptiveQuorumProtocol
from repro.protocols.majority import MajorityConsensusProtocol
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.simulation.engine import SimulationEngine
from repro.simulation.runner import run_simulation
from repro.telemetry.audit import DENIAL_REASONS, GRANTED
from repro.telemetry.recorder import NULL, Telemetry, current, use

#: Tiny but many-batched: the reconciliation must hold across batch
#: boundaries, protocol resets, and the warm-up/measurement split.
TEN_BATCH_SCALE = ExperimentScale(
    name="ten-batch",
    n_sites=13,
    warmup_accesses=200.0,
    accesses_per_batch=1_500.0,
    n_batches=10,
)


def ring_run(protocol=None, telemetry=None, accounting="sampled"):
    config = TEN_BATCH_SCALE.config(0, alpha=0.5, seed=11,
                                    accounting=accounting)
    if protocol is None:
        protocol = MajorityConsensusProtocol(config.topology.total_votes)
    return config, run_simulation(config, protocol, telemetry=telemetry)


class TestAccReconciliation:
    @pytest.mark.parametrize("accounting", ["sampled", "expected"])
    def test_audit_totals_match_batch_accounting_exactly(self, accounting):
        tel = Telemetry()
        _, result = ring_run(telemetry=tel, accounting=accounting)
        assert len(result.batches) == 10
        submitted = sum(b.accesses_submitted for b in result.batches)
        granted = sum(b.accesses_granted for b in result.batches)
        snap = result.telemetry
        assert snap is not None
        assert snap.audit_volume() == pytest.approx(submitted, abs=1e-9)
        assert snap.audit_volume(reason=GRANTED) == pytest.approx(granted, abs=1e-9)
        by_reason = snap.denials_by_reason()
        assert set(by_reason) <= set(DENIAL_REASONS)
        assert sum(by_reason.values()) == pytest.approx(submitted - granted,
                                                        abs=1e-9)
        assert snap.audit_availability() == pytest.approx(
            granted / submitted, abs=1e-12)

    def test_audit_records_tagged_with_batches(self):
        tel = Telemetry()
        ring_run(telemetry=tel)
        batches = {r.batch_index for r in tel.audit.records}
        assert batches == set(range(10))

    def test_span_tree_covers_engine_phases(self):
        tel = Telemetry()
        ring_run(telemetry=tel)
        names = {r.name for r in tel.spans.records}
        assert {"run.batches", "engine.run_batch", "engine.prime"} <= names
        [run_root] = tel.spans.by_name("run.batches")
        assert run_root.parent_id is None
        batch_spans = tel.spans.by_name("engine.run_batch")
        assert len(batch_spans) == 10
        for span in batch_spans:
            assert span.parent_id == run_root.span_id
            assert {c.name for c in tel.spans.children_of(span.span_id)}

    def test_engine_counters_match_audit(self):
        tel = Telemetry()
        _, result = ring_run(telemetry=tel)
        snap = result.telemetry
        assert snap.counter_value("repro_engine_accesses_total",
                                  decision="granted") == pytest.approx(
            snap.audit_volume(reason=GRANTED))
        assert snap.counter_value("repro_engine_epochs_total") > 0


class TestVersionedProtocolTelemetry:
    def test_qr_run_reconciles_and_reports_versions(self):
        config = TEN_BATCH_SCALE.config(0, alpha=0.5, seed=3)
        protocol = QuorumReassignmentProtocol(
            config.topology.n_sites,
            QuorumAssignment.majority(config.topology.total_votes),
        )
        tel = Telemetry()
        result = run_simulation(config, protocol, telemetry=tel)
        snap = result.telemetry
        submitted = sum(b.accesses_submitted for b in result.batches)
        granted = sum(b.accesses_granted for b in result.batches)
        assert snap.audit_volume() == pytest.approx(submitted, abs=1e-9)
        assert sum(snap.denials_by_reason().values()) == pytest.approx(
            submitted - granted, abs=1e-9)
        # Every quorum-decided record reports the version in force; only
        # site_down aggregates lack one (a down site has no component).
        versions = [r.assignment_version for r in tel.audit.records
                    if r.reason != "site_down"]
        assert versions and all(v is not None for v in versions)


class TestChaosTelemetry:
    def test_campaign_snapshot_reconciles(self):
        config = TEN_BATCH_SCALE.config(0, alpha=0.5, seed=5)
        horizon = config.warmup_time + config.batch_time
        half = list(range(config.topology.n_sites // 2))
        config = config.with_fault_schedule(FaultSchedule(partition(
            config.topology, 0.3 * horizon, [half], heal_at=0.7 * horizon)))
        protocol = MajorityConsensusProtocol(config.topology.total_votes)
        tel = Telemetry()
        report = run_chaos_campaign(config, protocol, n_batches=4,
                                    telemetry=tel)
        snap = report.telemetry
        assert snap is not None
        assert snap.meta["mode"] == "chaos"
        submitted = sum(b.accesses_submitted for b in report.batches)
        granted = sum(b.accesses_granted for b in report.batches)
        assert snap.audit_volume() == pytest.approx(submitted, abs=1e-9)
        assert snap.audit_volume(reason=GRANTED) == pytest.approx(granted,
                                                                  abs=1e-9)
        assert snap.counter_value("repro_invariant_checks_total") > 0
        # The scripted partition shows up as chaos-sourced events.
        assert snap.counter_value("repro_engine_events_total",
                                  source="chaos") > 0


class TestRecorderScoping:
    def test_disabled_by_default(self):
        _, result = ring_run()
        assert result.telemetry is None
        assert current() is NULL

    def test_use_scopes_the_current_recorder(self):
        tel = Telemetry()
        with use(tel):
            assert current() is tel
            _, result = ring_run()
            assert result.telemetry is not None
        assert current() is NULL

    def test_results_identical_with_and_without_telemetry(self):
        _, bare = ring_run()
        _, instrumented = ring_run(telemetry=Telemetry())
        for a, b in zip(bare.batches, instrumented.batches):
            assert a.accesses_submitted == b.accesses_submitted
            assert a.accesses_granted == b.accesses_granted
            assert a.surv_read == b.surv_read
            assert a.surv_write == b.surv_write
            assert a.n_epochs == b.n_epochs and a.n_events == b.n_events


class TestExpectedModePerEpochConsumers:
    """``expected`` volumes reach the ledger a chunk at a time; whoever
    reads them per epoch (``record_epoch``, the audit attributor) still
    gets every epoch's."""

    def test_adaptive_protocol_sees_every_epochs_volumes(self):
        config = TEN_BATCH_SCALE.config(0, alpha=0.75, seed=7,
                                        accounting="expected")
        protocol = AdaptiveQuorumProtocol(config.topology.n_sites,
                                          config.topology.total_votes)
        batch = SimulationEngine(config, protocol).run_batch(0)
        assert batch.n_epochs > 1
        assert protocol.workload.total_observed == pytest.approx(
            batch.accesses_submitted, rel=1e-12)
        assert protocol.workload.alpha == pytest.approx(0.75, abs=1e-3)
        assert protocol.density.total_weight == pytest.approx(
            batch.measured_time * config.topology.n_sites, rel=1e-12)

    def test_adaptive_run_with_telemetry_reconciles(self):
        config = TEN_BATCH_SCALE.config(0, alpha=0.75, seed=7,
                                        accounting="expected")
        protocol = AdaptiveQuorumProtocol(config.topology.n_sites,
                                          config.topology.total_votes)
        result = run_simulation(config, protocol, telemetry=Telemetry())
        snap = result.telemetry
        submitted = sum(b.accesses_submitted for b in result.batches)
        granted = sum(b.accesses_granted for b in result.batches)
        # The exact expected volume: nothing was drawn.
        assert submitted == pytest.approx(
            10 * TEN_BATCH_SCALE.accesses_per_batch, rel=1e-12)
        assert snap.audit_volume() == pytest.approx(submitted, abs=1e-9)
        assert snap.audit_volume(reason=GRANTED) == pytest.approx(granted,
                                                                  abs=1e-9)
        assert sum(snap.denials_by_reason().values()) == pytest.approx(
            submitted - granted, abs=1e-9)
        assert snap.counter_value("repro_engine_epochs_total") == sum(
            b.n_epochs for b in result.batches)
