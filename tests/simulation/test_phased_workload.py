"""Tests for the phased (time-varying) workload."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.protocols.majority import MajorityConsensusProtocol
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate_batch
from repro.simulation.workload import AccessWorkload, PhasedWorkload
from repro.topology.generators import ring


def two_phase(n=7, alpha1=0.0, alpha2=1.0, switch=50.0):
    return PhasedWorkload([
        (0.0, AccessWorkload.uniform(n, alpha1)),
        (switch, AccessWorkload.uniform(n, alpha2)),
    ])


class TestPhasedWorkloadUnit:
    def test_phase_lookup(self):
        w = two_phase(switch=10.0)
        assert w.at(0.0).alpha == 0.0
        assert w.at(9.99).alpha == 0.0
        assert w.at(10.0).alpha == 1.0
        assert w.at(1e9).alpha == 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            two_phase().at(-1.0)

    def test_validation(self):
        wl = AccessWorkload.uniform(5, 0.5)
        with pytest.raises(SimulationError):
            PhasedWorkload([])
        with pytest.raises(SimulationError):
            PhasedWorkload([(1.0, wl)])  # must start at 0
        with pytest.raises(SimulationError):
            PhasedWorkload([(0.0, wl), (0.0, wl)])  # not increasing
        with pytest.raises(SimulationError):
            PhasedWorkload([(0.0, wl), (1.0, AccessWorkload.uniform(4, 0.5))])
        with pytest.raises(SimulationError):
            PhasedWorkload(
                [(0.0, wl), (1.0, AccessWorkload.uniform(5, 0.5, rate_per_site=2.0))]
            )

    def test_properties_delegate_to_first_phase(self):
        w = two_phase(n=6)
        assert w.n_sites == 6
        assert w.aggregate_rate == 6.0
        assert w.alpha == 0.0

    def test_with_alpha_rewrites_all_phases(self):
        w = two_phase().with_alpha(0.3)
        assert w.at(0.0).alpha == 0.3
        assert w.at(1e6).alpha == 0.3


class TestPhasedInEngine:
    def test_read_write_mix_switches_at_phase_boundary(self):
        n = 7
        # Phase 1 (first 50 time units = ~350 accesses): all writes.
        # Phase 2: all reads.
        workload = two_phase(n=n, alpha1=0.0, alpha2=1.0, switch=50.0)
        cfg = SimulationConfig(
            topology=ring(n),
            workload=workload,
            warmup_accesses=0.0,
            accesses_per_batch=700.0,  # 100 time units: 50 per phase
            n_batches=1,
            seed=5,
        )
        res = simulate_batch(cfg, MajorityConsensusProtocol(n))
        # Roughly half the accesses are writes (phase 1), half reads.
        frac_reads = res.reads_submitted / res.accesses_submitted
        assert frac_reads == pytest.approx(0.5, abs=0.1)

    def test_phase_clock_starts_after_warmup(self):
        n = 7
        workload = two_phase(n=n, alpha1=1.0, alpha2=0.0, switch=1e9)
        cfg = SimulationConfig(
            topology=ring(n),
            workload=workload,
            warmup_accesses=700.0,  # 100 time units of warm-up
            accesses_per_batch=700.0,
            n_batches=1,
            seed=6,
        )
        res = simulate_batch(cfg, MajorityConsensusProtocol(n))
        # If phases were measured from absolute time 0 the warm-up would
        # not matter; they are measured from the warm-up end, so the
        # entire measured window sits in phase 1 (all reads).
        assert res.writes_submitted == 0

    def test_constant_workload_unaffected(self):
        n = 7
        cfg = SimulationConfig(
            topology=ring(n),
            workload=AccessWorkload.uniform(n, 0.5),
            warmup_accesses=0.0,
            accesses_per_batch=2_000.0,
            n_batches=1,
            seed=7,
        )
        res = simulate_batch(cfg, MajorityConsensusProtocol(n))
        assert res.reads_submitted > 0 and res.writes_submitted > 0
