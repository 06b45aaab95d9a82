"""Tests for the paper's §3 availability bounds.

ACC never exceeds the site reliability ``p``, and the optimal quorum
assignment never beats the best read term and the best write term at
once: ``A* <= alpha R(1) + (1 - alpha) W(floor(T/2) + 1)``. The envelope
is the ``upper-envelope`` row of ``repro verify``; these tests drive
that row and the optimizer it checks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.complete import complete_density
from repro.analytic.ring import ring_density
from repro.errors import VerificationError
from repro.quorum.availability import AvailabilityModel, write_availability
from repro.quorum.optimizer import optimal_read_quorum
from repro.verification.cases import VerificationCase, profile_cases
from repro.verification.metamorphic import run_relation


def _case(family, n, p, r, alpha):
    return VerificationCase(name=f"{family}-{n}", family=family, n_sites=n,
                            p=p, r=r, alpha=alpha, read_quorums=(1,))


def _headroom(density, alpha, p):
    """``p - A*``: the availability replication leaves on the table."""
    model = AvailabilityModel(density, density)
    return p - optimal_read_quorum(model, alpha).availability


class TestScalarBounds:
    def test_simulated_acc_respects_site_bound(self):
        """Measured ACC of a real simulation never exceeds p."""
        from repro.experiments.paper import TEST_SCALE
        from repro.protocols.majority import MajorityConsensusProtocol
        from repro.simulation.runner import run_simulation

        cfg = TEST_SCALE.config(chords=4, alpha=0.5, seed=2)
        res = run_simulation(cfg, MajorityConsensusProtocol(cfg.topology.total_votes))
        assert res.availability.mean <= 0.96 + 0.02


class TestQuorumEnvelope:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize(
        "family,p,r", [("ring", 0.96, 0.96), ("complete", 0.9, 0.7)],
        ids=["ring", "complete"],
    )
    def test_optimizer_never_beats_envelope(self, alpha, family, p, r):
        [row] = run_relation("upper-envelope", _case(family, 31, p, r, alpha))
        assert row.passed and row.value_a == 0.0

    @staticmethod
    def _gap(n, alpha):
        f = ring_density(n, 0.96, 0.96)
        model = AvailabilityModel(f, f)
        envelope = (alpha * model.read_availability(1)
                    + (1 - alpha) * write_availability(f, n // 2 + 1))
        return envelope - optimal_read_quorum(model, alpha).availability

    def test_envelope_tight_at_pure_workloads_even_T(self):
        """At alpha = 1 the envelope is achieved by q_r = 1; at alpha = 0
        by the majority assignment. The alpha = 0 end is tight only for
        even T: for odd T the paper's convention q_w = T - q_r + 1 cannot
        reach q_w = floor(T/2) + 1 (see QuorumAssignment.majority)."""
        for alpha in (0.0, 1.0):
            assert self._gap(20, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_envelope_strict_at_alpha_zero_odd_T(self):
        assert self._gap(21, 0.0) > 0.0  # q_w = 12 achievable, not 11

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=30)
    def test_envelope_random_alpha(self, alpha):
        [row] = run_relation("upper-envelope", _case("complete", 17, 0.9, 0.8, alpha))
        assert row.passed

    def test_alpha_validation(self):
        with pytest.raises(VerificationError):
            _case("ring", 9, 0.9, 0.9, 1.2)

    def test_a_model_above_the_envelope_is_caught(self):
        # On the bus with 8 voting sites the shifted quorum reaches
        # q_w = floor(T/2), below the smallest legal write quorum.
        bus = next(c for c in profile_cases("full") if c.name == "bus-8-sim")
        [row] = run_relation("upper-envelope", bus, "quorum-off-by-one")
        assert not row.passed


class TestHeadroom:
    def test_dense_network_has_no_headroom(self):
        """Complete graph at p = r = .96: the optimum hits the p ceiling
        (the paper's fig-7 plateau at .9627 ~ .96)."""
        assert _headroom(complete_density(51, 0.96, 0.96), 0.5, 0.96) < 0.01

    def test_sparse_network_pays_partition_penalty(self):
        assert _headroom(ring_density(101, 0.96, 0.96), 0.5, 0.96) > 0.3

    def test_headroom_nonnegative_for_matching_reliability(self):
        for density in (ring_density(15, 0.9, 0.9), complete_density(15, 0.9, 0.9)):
            for alpha in (0.0, 0.5, 1.0):
                assert _headroom(density, alpha, 0.9) >= -1e-9
