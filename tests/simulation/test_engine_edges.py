"""Edge-case tests for the simulation engine."""

import numpy as np
import pytest

from repro.connectivity.dynamic import ComponentTracker
from repro.errors import BatchExecutionError, DensityError
from repro.protocols.majority import MajorityConsensusProtocol
from repro.simulation.config import SimulationConfig
from repro.simulation import engine as engine_module
from repro.simulation.engine import SimulationEngine, simulate_batch
from repro.simulation.workload import AccessWorkload
from repro.topology.generators import ring
from repro.topology.model import Topology


def cfg_for(topo, **kw):
    defaults = dict(
        warmup_accesses=0.0,
        accesses_per_batch=1_000.0,
        n_batches=1,
        seed=0,
    )
    defaults.update(kw)
    return SimulationConfig.paper_like(topo, alpha=0.5, **defaults)


class TestDegenerateNetworks:
    def test_single_link_network(self):
        topo = Topology(2, [(0, 1)])
        res = simulate_batch(cfg_for(topo), MajorityConsensusProtocol(2))
        assert 0.0 <= res.availability <= 1.0

    def test_linkless_network(self):
        """Isolated sites: T = 3, majority needs q_r = 1, q_w = 3 —
        writes never succeed, reads succeed iff the site is up."""
        topo = Topology(3, [])
        res = simulate_batch(
            cfg_for(topo, accesses_per_batch=20_000.0),
            MajorityConsensusProtocol(3),
        )
        assert res.read_availability == pytest.approx(0.96, abs=0.02)
        assert res.write_availability == 0.0

    def test_zero_vote_sites_never_grant_alone(self):
        """A zero-vote site's own component (when isolated) has 0 votes."""
        topo = Topology(3, [(0, 1), (1, 2)], votes=[1, 1, 0])
        res = simulate_batch(
            cfg_for(topo, accesses_per_batch=5_000.0),
            MajorityConsensusProtocol(2),
        )
        assert 0.0 <= res.availability <= 1.0


class TestExtremeParameters:
    def test_nearly_no_failures(self):
        topo = ring(7)
        cfg = SimulationConfig(
            topology=topo,
            workload=AccessWorkload.uniform(7, 0.5),
            mean_time_to_failure=1e9,
            mean_time_to_repair=1.0,
            warmup_accesses=0.0,
            accesses_per_batch=2_000.0,
            n_batches=1,
            seed=1,
        )
        res = simulate_batch(cfg, MajorityConsensusProtocol(7))
        assert res.availability == pytest.approx(1.0, abs=1e-6)
        assert res.n_events == 0

    def test_failure_storm(self):
        """mttr >> mttf: the network is almost always dark, availability
        near zero, and the engine still terminates cleanly."""
        topo = ring(5)
        cfg = SimulationConfig(
            topology=topo,
            workload=AccessWorkload.uniform(5, 0.5),
            mean_time_to_failure=0.5,
            mean_time_to_repair=50.0,
            warmup_accesses=0.0,
            accesses_per_batch=2_000.0,
            n_batches=1,
            initial_state="stationary",
            seed=2,
        )
        res = simulate_batch(cfg, MajorityConsensusProtocol(5))
        assert res.availability < 0.05

    def test_tiny_batch(self):
        topo = ring(5)
        res = simulate_batch(
            cfg_for(topo, accesses_per_batch=1.0),
            MajorityConsensusProtocol(5),
        )
        assert res.measured_time > 0
        # Possibly zero accesses sampled; availability must not crash.
        assert 0.0 <= res.availability <= 1.0

    def test_warmup_only_boundary(self):
        """Warm-up boundary inside a long epoch must split accounting
        exactly: measured time equals batch_time regardless."""
        topo = ring(5)
        cfg = cfg_for(topo, warmup_accesses=777.0, accesses_per_batch=333.0)
        res = simulate_batch(cfg, MajorityConsensusProtocol(5))
        assert res.measured_time == pytest.approx(cfg.batch_time)


class TestInfallibleComponents:
    def test_infallible_links_only_site_events(self):
        topo = ring(6)
        cfg = SimulationConfig(
            topology=topo,
            workload=AccessWorkload.uniform(6, 0.5),
            mean_time_to_failure=10.0,
            mean_time_to_repair=1.0,
            warmup_accesses=0.0,
            accesses_per_batch=3_000.0,
            n_batches=1,
            fallible_links=np.zeros(6, dtype=bool),
            seed=3,
        )
        engine = SimulationEngine(cfg, MajorityConsensusProtocol(6), record_trace=True)
        batch = engine.run_batch(0)
        kinds = set(batch.trace.counts_by_kind())
        assert kinds <= {"site_fail", "site_repair"}

    def test_everything_infallible(self):
        topo = ring(4)
        cfg = SimulationConfig(
            topology=topo,
            workload=AccessWorkload.uniform(4, 0.5),
            warmup_accesses=0.0,
            accesses_per_batch=500.0,
            n_batches=1,
            fallible_sites=np.zeros(4, dtype=bool),
            fallible_links=np.zeros(4, dtype=bool),
            seed=4,
        )
        res = simulate_batch(cfg, MajorityConsensusProtocol(4))
        assert res.availability == 1.0
        assert res.n_events == 0
        assert res.surv_read == 1.0


    def test_links_that_never_fail_by_an_infinite_mean(self):
        # ``inf`` is "never": the same batch as with the links masked out,
        # and the draws spent on them change nothing that is observed.
        topo = ring(6)
        mttf = np.array([10.0] * 6 + [np.inf] * 6)
        cfg = SimulationConfig(
            topology=topo,
            workload=AccessWorkload.uniform(6, 0.5),
            mean_time_to_failure=mttf,
            mean_time_to_repair=1.0,
            warmup_accesses=0.0,
            accesses_per_batch=3_000.0,
            n_batches=1,
            seed=3,
        )
        batch = SimulationEngine(
            cfg, MajorityConsensusProtocol(6), record_trace=True).run_batch(0)
        assert batch.n_events > 50
        assert set(batch.trace.counts_by_kind()) <= {"site_fail", "site_repair"}
        assert 0.0 < batch.availability < 1.0


class TestLedgerValidationFailure:
    def test_bad_totals_in_the_last_partial_chunk_quarantine_the_batch(
        self, monkeypatch
    ):
        """The final flush runs inside the batch's error boundary: a
        tracker reporting T+1 votes after the last topology event still
        ends in a ``BatchExecutionError`` that carries the trace."""
        cfg = cfg_for(ring(7), accesses_per_batch=4_000.0, seed=2)
        protocol = MajorityConsensusProtocol(7)
        clean = simulate_batch(cfg, protocol)
        # One full chunk flushes cleanly; the poisoned epoch is buffered
        # in a second, partially filled one.
        chunk = clean.n_epochs // 2 + 1
        assert clean.n_events > 0 and 0 < clean.n_epochs % chunk < clean.n_epochs

        class PoisonedTracker(ComponentTracker):
            poisoned = False

            @property
            def vote_totals(self):
                totals = ComponentTracker.vote_totals.fget(self)
                return np.full_like(totals, 7 + 1) if self.poisoned else totals

        events_seen = []

        def poison_after_last_event(now, tracker, _protocol):
            events_seen.append(now)
            if len(events_seen) == clean.n_epochs - 1:
                tracker.poisoned = True

        monkeypatch.setattr(engine_module, "ComponentTracker", PoisonedTracker)
        monkeypatch.setattr(engine_module, "_LEDGER_CHUNK", chunk)
        engine = SimulationEngine(cfg, protocol,
                                  change_observer=poison_after_last_event)
        with pytest.raises(BatchExecutionError) as excinfo:
            engine.run_batch(0)
        assert isinstance(excinfo.value.__cause__, DensityError)
        assert len(excinfo.value.trace) == clean.n_events
