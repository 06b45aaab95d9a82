"""End-to-end tests for the adaptive quorum serving engine.

The acceptance-critical properties: bitwise-identical digests for one
seed, whatever the stream's chunk size, exact audit reconciliation,
at least one estimation-driven reassignment under the correlated
scenario, graceful degradation (read-only mode, stale reads, shedding),
and the abort contract on invariant violations. The serving settings
are constants of ``repro.serving.service``; a test that needs another
value monkeypatches the constant.
"""

import math

import numpy as np
import pytest

from repro.faults.schedule import FaultSchedule
from repro.quorum.assignment import QuorumAssignment
from repro.replication.database import ReplicatedDatabase
from repro.serving import (
    SERVE_SCENARIOS,
    RequestStream,
    ServeConfig,
    ServeReport,
    run_serve,
    serving_schedule,
)
from repro.serving import service as service_module
from repro.serving.report import outcome_code
from repro.serving.service import AdaptiveQuorumService, _latency_summary
from repro.simulation.events import EventKind
from repro.simulation.workload import AccessWorkload
from repro.telemetry.recorder import Telemetry
from repro.topology.generators import ring_with_chords

N_SITES = 9
TOPOLOGY = ring_with_chords(N_SITES, 2)


def make_config(**overrides):
    defaults = dict(
        topology=TOPOLOGY,
        workload=AccessWorkload.uniform(N_SITES, 0.7),
        initial_assignment=QuorumAssignment.from_read_quorum(
            TOPOLOGY.total_votes, 1
        ),
        n_requests=6_000,
        seed=11,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def scheduled(**overrides) -> ServeConfig:
    config = make_config(**overrides)
    if config.fault_schedule is None and config.scenario != "custom":
        config.fault_schedule = serving_schedule(
            config.scenario, config.topology, config.horizon
        )
    return config


def serve(**overrides) -> ServeReport:
    return run_serve(scheduled(**overrides))


class TestCleanRun:
    def test_no_faults_everything_granted(self):
        report = serve(scenario="custom")
        assert report.served == 6_000
        assert report.outcomes == {"granted": 6_000}
        assert report.availability == 1.0
        assert not report.reassignments
        assert not report.violations
        assert report.reconciled
        assert report.passed
        assert report.exit_code == 0

    def test_reconciliation_is_exact_per_cell(self):
        report = serve(scenario="correlated")
        assert report.reconciliation_failures() == []
        # Every database attempt the serving layer made appears in the
        # audit with the same (op, reason) — including retries.
        assert sum(report.db_attempts.values()) == sum(
            report.audit_totals.values()
        )

    def test_slo_gates_flip_exit_code(self):
        report = serve(scenario="custom")
        report.min_availability = 1.1
        assert not report.passed
        assert report.exit_code == 1


class TestDeterminism:
    def test_heap_event_at_an_arrivals_instant_goes_first(self):
        # A site fails at the very instant request 10 arrives there: the
        # sequencer applies the fault first, so that request is refused.
        config = make_config(scenario="custom", n_requests=50)
        stream = RequestStream(config.workload, 50, config.seed)
        at, site = float(stream.times[10]), int(stream.sites[10])
        config.fault_schedule = FaultSchedule([(at, EventKind.SITE_FAIL, site)])
        report = run_serve(config)
        granted = outcome_code("granted")
        assert (report.outcome_codes[:10] == granted).all()
        assert report.outcome_codes[10] != granted
        assert report.attempt_counts[10] > 1

    def test_same_seed_runs_share_a_digest(self, monkeypatch):
        monkeypatch.setattr(service_module, "CHUNK_SIZE", 256)
        assert (serve(scenario="correlated").digest()
                == serve(scenario="correlated").digest())

    def test_digest_invariant_across_chunk_size(self, monkeypatch):
        base = serve(scenario="mixed").digest()
        monkeypatch.setattr(service_module, "CHUNK_SIZE", 64)
        assert serve(scenario="mixed").digest() == base

    def test_different_seeds_differ(self):
        a = serve(scenario="correlated", seed=1)
        b = serve(scenario="correlated", seed=2)
        assert a.digest() != b.digest()

    def test_repeated_run_identical_report_fields(self):
        a = serve(scenario="flap")
        b = serve(scenario="flap")
        assert a.outcomes == b.outcomes
        assert a.reassignments == b.reassignments
        np.testing.assert_array_equal(a.outcome_codes, b.outcome_codes)
        np.testing.assert_array_equal(a.attempt_counts, b.attempt_counts)


class TestAdaptiveLoop:
    def test_correlated_failures_trigger_reassignment(self):
        report = serve(scenario="correlated")
        assert len(report.reassignments) >= 1
        event = report.reassignments[0]
        assert event.new_read_quorum != event.old_read_quorum
        assert event.trigger in ("control", "watchdog")
        assert report.final_version > 1
        assert not report.violations

    def test_reassignment_moves_off_fragile_assignment(self):
        # q_r = 1 means q_w = T: any site loss kills writes. Under the
        # correlated scenario the estimator must learn this and move.
        report = serve(scenario="correlated")
        assert report.final_read_quorum > 1

    def test_watchdog_runs(self):
        report = serve(scenario="correlated")
        assert report.watchdog_ticks > 0


class TestDegradation:
    def test_read_only_mode_fast_rejects_writes(self):
        report = serve(scenario="correlated")
        assert report.read_only_entries >= 1
        assert report.read_only_time > 0
        assert report.outcomes.get("read_only", 0) > 0

    def test_overload_shedding_under_tiny_queue(self, monkeypatch):
        monkeypatch.setattr(service_module, "QUEUE_CAPACITY", 1)
        report = serve(scenario="correlated")
        assert report.shed == report.outcomes.get("overload", 0) > 0
        assert report.reconciled

    def test_exhausted_reads_fall_back_to_a_stale_copy(self):
        # q_r = 3 of 9 under a partition: a minority read that exhausts its
        # retries is served the newest local copy, never counted as granted.
        report = serve(scenario="partition",
                       initial_assignment=QuorumAssignment.from_read_quorum(
                           TOPOLOGY.total_votes, 3))
        assert report.outcomes.get("stale_read", 0) > 0
        assert report.outcomes["granted"] == sum(
            count for (_, cause), count in report.audit_totals.items()
            if cause == "granted")
        assert report.reconciled

    def test_breakers_absorb_repeated_failures(self):
        report = serve(scenario="correlated")
        assert report.breaker_trips > 0
        assert report.breaker_rejections == report.outcomes.get(
            "circuit_open", 0
        )


class TestAbortContract:
    def test_injected_violation_aborts_run(self):
        config = make_config(scenario="correlated")
        config.fault_schedule = serving_schedule(
            "correlated", config.topology, config.horizon
        )
        service = AdaptiveQuorumService(config)
        # Simulate a monitor-detected violation before serving starts:
        # the first network-change check must abort the run.
        service.monitor.record_serializability(0.0, "injected for test")
        report = service.run()
        assert report.aborted
        assert report.violations
        assert report.outcomes.get("unserved", 0) > 0
        assert report.exit_code == 1


class TestConfigValidation:
    def test_rejects_bad_counts(self):
        from repro.errors import ReproError

        for field, value in (("n_requests", 0), ("n_clients", 0)):
            with pytest.raises(ReproError):
                make_config(**{field: value})

    def test_rejects_mismatched_workload(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            make_config(workload=AccessWorkload.uniform(N_SITES + 1, 0.5))


QUANTILES = (("p50", 0.5), ("p90", 0.9), ("p99", 0.99))


def nearest_rank(values, q):
    """The smallest value with at least ``q`` of the sample at or below it."""
    ordered = np.sort(values)
    return float(ordered[max(0, math.ceil(q * ordered.size) - 1)])


class TestLatency:
    """Latency is exact nearest-rank over granted requests, at report time."""

    def test_summary_definition(self):
        summary = _latency_summary(np.arange(100.0, 0.0, -1.0))
        assert (summary["p50"], summary["p90"], summary["p99"]) == (50, 90, 99)
        assert summary["max"] == 100 and summary["count"] == 100
        assert summary["mean"] == 50.5

    def test_nothing_granted_is_nan(self):
        summary = _latency_summary(np.empty(0))
        assert summary["count"] == 0
        assert all(math.isnan(summary[k]) for k in ("mean", "p50", "p99", "max"))

    def test_p99_gate_with_nothing_granted_fails(self):
        # Every site is down from the start: no request is granted, so p99
        # is NaN, and a refused request misses every latency limit.
        report = run_serve(make_config(
            scenario="custom", n_requests=500,
            fault_schedule=FaultSchedule(
                (0.0, EventKind.SITE_FAIL, site) for site in range(N_SITES))))
        assert "granted" not in report.outcomes
        assert math.isnan(report.latency["p99"])
        assert report.passed
        report.max_p99 = math.inf
        assert not report.passed
        assert report.exit_code == 1

    @pytest.mark.parametrize("scenario", SERVE_SCENARIOS)
    def test_quantiles_are_nearest_rank_over_granted(self, scenario):
        tel = Telemetry()
        service = AdaptiveQuorumService(
            scheduled(scenario=scenario, n_requests=3_000), tel)
        report = service.run()
        granted = service._latencies[
            report.outcome_codes == outcome_code("granted")]
        latency = report.latency
        assert latency["count"] == granted.size == report.outcomes["granted"]
        assert latency["p50"] <= latency["p90"] <= latency["p99"] <= latency["max"]
        for name, q in QUANTILES:
            assert latency[name] == nearest_rank(granted, q)
        assert latency["max"] == granted.max()
        # The exported histogram is filled from the same latencies, once.
        (series,) = tel.metrics.get("repro_serve_latency_seconds").series().values()
        assert series.count == granted.size
        assert series.max == latency["max"]


class TestDecisionView:
    """The database's per-version decision view is an optimisation only."""

    @staticmethod
    def observed(config):
        tel = Telemetry()
        report = run_serve(config, tel)
        snap = tel.snapshot()
        return {
            "digest": report.digest(),
            "audit_totals": report.audit_totals,
            "audit_records": snap.audit_records,
            "counters": snap.counters,
        }

    @pytest.mark.parametrize("scenario", SERVE_SCENARIOS)
    def test_view_rebuilt_per_decision_changes_nothing(self, scenario,
                                                       monkeypatch):
        cached = self.observed(scheduled(scenario=scenario, n_requests=3_000))
        monkeypatch.setattr(ReplicatedDatabase, "_view_of",
                            ReplicatedDatabase._build_view)
        rebuilt = self.observed(scheduled(scenario=scenario, n_requests=3_000))
        assert cached["audit_records"]
        for part in cached:
            assert cached[part] == rebuilt[part], part

    @pytest.mark.parametrize("scenario", SERVE_SCENARIOS)
    def test_newest_copy_rescanned_per_read_changes_nothing(self, scenario,
                                                            monkeypatch):
        cached = self.observed(scheduled(scenario=scenario, n_requests=3_000))
        monkeypatch.setattr(
            ReplicatedDatabase, "_newest_copy",
            lambda db, view: db._scan_newest(view.replicas))
        rescanned = self.observed(scheduled(scenario=scenario, n_requests=3_000))
        for part in cached:
            assert cached[part] == rescanned[part], part
