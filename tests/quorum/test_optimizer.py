"""Unit tests for the Figure-1 step-4 optimizers."""

import numpy as np
import pytest

from repro.analytic import CLOSED_FORM_FAMILIES, closed_form_density
from repro.analytic.complete import complete_density
from repro.analytic.ring import ring_density
from repro.errors import OptimizationError
from repro.experiments.paper import PAPER_ALPHAS, PAPER_N_SITES, PAPER_RELIABILITY
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import optimal_read_quorum, optimize_availability

METHODS = ("exhaustive", "endpoints", "golden", "brent")


def model_from(density):
    return AvailabilityModel(density, density)


class TestExhaustive:
    def test_dense_network_low_alpha_prefers_majority(self):
        model = model_from(complete_density(20, 0.96, 0.96))
        res = optimal_read_quorum(model, alpha=0.25)
        assert res.read_quorum == model.max_read_quorum

    def test_sparse_network_high_alpha_prefers_rowa(self):
        model = model_from(ring_density(51, 0.96, 0.96))
        res = optimal_read_quorum(model, alpha=0.9)
        assert res.read_quorum == 1

    def test_availability_value_is_consistent(self):
        model = model_from(complete_density(12, 0.9, 0.8))
        res = optimal_read_quorum(model, alpha=0.5)
        assert res.availability == pytest.approx(
            float(model.availability(0.5, res.read_quorum))
        )

    def test_result_metadata(self):
        model = model_from(complete_density(12, 0.9, 0.8))
        res = optimal_read_quorum(model, alpha=0.5)
        assert res.method == "exhaustive"
        assert res.evaluations == model.max_read_quorum
        assert res.alpha == 0.5
        assert res.write_quorum == model.total_votes - res.read_quorum + 1

    def test_tie_breaks_toward_smaller_quorum(self):
        # Flat curve: uniform density over 1..T with alpha = 0.5 and
        # r = w makes small plateaus; force an exact tie with a point mass.
        f = np.zeros(7)
        f[6] = 1.0  # always a full component: every q_r gives A = 1.
        model = model_from(f)
        res = optimal_read_quorum(model, alpha=0.3)
        assert res.read_quorum == 1

    def test_alpha_validation(self):
        model = model_from(complete_density(8, 0.9, 0.9))
        with pytest.raises(OptimizationError):
            optimal_read_quorum(model, alpha=-0.1)

    def test_unknown_method(self):
        model = model_from(complete_density(8, 0.9, 0.9))
        with pytest.raises(OptimizationError):
            optimal_read_quorum(model, 0.5, method="simulated-annealing")


class TestMethodAgreement:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize(
        "density",
        [
            complete_density(25, 0.96, 0.96),
            complete_density(25, 0.9, 0.5),
            ring_density(25, 0.96, 0.96),
            ring_density(25, 0.8, 0.9),
        ],
        ids=["dense-reliable", "dense-flaky-links", "ring-reliable", "ring-flaky-sites"],
    )
    def test_all_methods_agree_on_availability(self, alpha, density):
        """Every method must find an availability equal to the exhaustive
        optimum on these (empirically unimodal) paper-like densities."""
        model = model_from(density)
        reference = optimal_read_quorum(model, alpha, method="exhaustive")
        for method in ("golden", "brent"):
            res = optimal_read_quorum(model, alpha, method=method)
            assert res.availability == pytest.approx(reference.availability, abs=1e-12), method

    @pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
    def test_brent_matches_exhaustive_on_paper_closed_forms(self, family):
        """``brent`` behind its function-local ``scipy.optimize`` import still
        finds the exhaustive optimum on the 101-site closed-form models.

        Where the optimum is unique (ring) the read quorum is identical.
        complete-101 and bus-101 have a 27-point plateau within the tie
        tolerance of the maximum; exhaustive returns its smallest member,
        brent whichever member its bracket lands on, so there the contract
        is "a member of the same tie class", not the same integer.
        """
        density = closed_form_density(
            family, PAPER_N_SITES, PAPER_RELIABILITY, PAPER_RELIABILITY
        )
        model = model_from(density)
        for alpha in PAPER_ALPHAS:
            reference = optimal_read_quorum(model, alpha, method="exhaustive")
            res = optimal_read_quorum(model, alpha, method="brent")
            curve = model.curve(alpha)
            tie_class = np.nonzero(curve >= curve.max() - 1e-12)[0] + 1
            assert res.read_quorum in tie_class, (family, alpha)
            assert res.availability == pytest.approx(reference.availability, abs=1e-12)
            assert res.availability == curve[res.read_quorum - 1]
            assert res.evaluations == reference.evaluations  # full curve, then bracket
            if tie_class.size == 1:
                assert res.read_quorum == reference.read_quorum

    def test_endpoints_method_exact_when_optimum_at_endpoint(self):
        model = model_from(ring_density(31, 0.96, 0.96))
        for alpha in (0.0, 1.0):
            exhaustive = optimal_read_quorum(model, alpha)
            endpoints = optimal_read_quorum(model, alpha, method="endpoints")
            assert endpoints.read_quorum == exhaustive.read_quorum

    def test_endpoints_cheaper_than_exhaustive(self):
        model = model_from(complete_density(40, 0.96, 0.96))
        endpoint = optimal_read_quorum(model, 0.5, method="endpoints")
        assert endpoint.evaluations == 2

    def test_golden_handles_tiny_ranges(self):
        for T in (1, 2, 3, 4, 5, 6):
            f = complete_density(T, 0.9, 0.9)
            model = model_from(f)
            a = optimal_read_quorum(model, 0.5, method="golden")
            b = optimal_read_quorum(model, 0.5, method="exhaustive")
            assert a.availability == pytest.approx(b.availability)

    def test_interior_maximum_found_by_exhaustive(self):
        # Construct a density with an interior optimum: bimodal component
        # sizes (3 and 8 votes, T = 10) make q_r = 3 strictly best — reads
        # still succeed in the small components while q_w = 8 lets writes
        # succeed in the large ones.
        f = np.zeros(11)
        f[0] = 0.05
        f[3] = 0.50
        f[8] = 0.45
        model = model_from(f)
        curve = model.curve(0.55)
        res = optimal_read_quorum(model, 0.55)
        assert curve[res.read_quorum - 1] == pytest.approx(curve.max())
        assert 1 < res.read_quorum < model.max_read_quorum

    def test_brent_never_worse_than_endpoints(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            raw = rng.random(16)
            f = raw / raw.sum()
            model = model_from(f)
            alpha = float(rng.random())
            b = optimal_read_quorum(model, alpha, method="brent")
            e = optimal_read_quorum(model, alpha, method="endpoints")
            assert b.availability >= e.availability - 1e-12

    def test_alias(self):
        model = model_from(complete_density(8, 0.9, 0.9))
        assert (
            optimize_availability(model, 0.5).read_quorum
            == optimal_read_quorum(model, 0.5).read_quorum
        )
