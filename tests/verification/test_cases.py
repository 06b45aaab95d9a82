"""Unit tests for verification case definitions and profiles."""

import numpy as np
import pytest

from repro.errors import VerificationError
from repro.verification.cases import PROFILES, VerificationCase, profile_cases


def _case(**overrides):
    base = dict(
        name="t", family="ring", n_sites=7, p=0.9, r=0.85, alpha=0.5,
        read_quorums=(1, 2),
    )
    base.update(overrides)
    return VerificationCase(**base)


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(VerificationError, match="family"):
            _case(family="torus")

    def test_quorum_out_of_range(self):
        with pytest.raises(VerificationError, match="read quorum"):
            _case(read_quorums=(0,))
        with pytest.raises(VerificationError, match="read quorum"):
            _case(read_quorums=(8,))

    def test_empty_quorums(self):
        with pytest.raises(VerificationError, match="no read quorums"):
            _case(read_quorums=())

    def test_sim_quorum_must_be_feasible(self):
        with pytest.raises(VerificationError, match="sim_read_quorum"):
            _case(sim_read_quorum=4)  # floor(7/2) == 3
        assert _case(sim_read_quorum=3).sim_read_quorum == 3

    def test_probability_bounds(self):
        with pytest.raises(VerificationError, match="alpha"):
            _case(alpha=1.5)
        with pytest.raises(VerificationError, match="p "):
            _case(p=-0.1)


class TestGeometry:
    def test_bus_adds_zero_vote_hub(self):
        case = _case(family="bus")
        topology = case.topology()
        assert topology.n_sites == 8  # 7 real sites + hub
        assert case.total_votes == 7
        rel = case.site_reliabilities()
        assert rel.shape == (8,)
        assert rel[-1] == case.r  # the hub *is* the bus
        assert (case.link_reliabilities() == 1.0).all()  # perfect spokes

    def test_ring_reliabilities(self):
        case = _case()
        assert (case.site_reliabilities() == 0.9).all()
        assert (case.link_reliabilities() == 0.85).all()

    def test_simulation_config_round_trip(self):
        config = _case(sim_read_quorum=2).simulation_config()
        assert config.accounting == "expected"
        assert config.initial_state == "stationary"
        assert config.warmup_accesses == 0.0
        # MTTF/MTTR encode the stationary reliabilities.
        avail = config.mean_time_to_failure / (
            config.mean_time_to_failure + config.mean_time_to_repair
        )
        assert avail[:7] == pytest.approx(np.full(7, 0.9))

    def test_bus_simulation_masks_perfect_links(self):
        config = _case(family="bus", sim_read_quorum=2).simulation_config()
        assert config.fallible_links is not None
        assert not config.fallible_links.any()


class TestProfiles:
    def test_profiles_listed(self):
        assert PROFILES == ("quick", "full")

    def test_unknown_profile(self):
        with pytest.raises(VerificationError, match="profile"):
            profile_cases("exhaustive")

    def test_quick_covers_all_families(self):
        families = {case.family for case in profile_cases("quick")}
        assert families == {"ring", "complete", "bus"}

    def test_quick_has_simulation_cases(self):
        assert any(c.sim_read_quorum is not None for c in profile_cases("quick"))

    def test_full_is_superset(self):
        quick = {c.name for c in profile_cases("quick")}
        full = {c.name for c in profile_cases("full")}
        assert quick < full

    def test_full_reaches_beyond_enumeration_cap(self):
        from repro.verification.witnesses import enumeration_engine

        beyond = [c for c in profile_cases("full")
                  if enumeration_engine(c) is None]
        assert beyond, "full profile should include cases only the " \
                       "statistical engines can cross-check"
