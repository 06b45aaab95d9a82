"""Unit tests for the Figure-1 step-4 optimizer."""

import numpy as np
import pytest

from repro.analytic import CLOSED_FORM_FAMILIES, closed_form_density
from repro.analytic.complete import complete_density
from repro.analytic.ring import ring_density
from repro.errors import OptimizationError
from repro.experiments.paper import PAPER_ALPHAS, PAPER_N_SITES, PAPER_RELIABILITY
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import optimal_read_quorum


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


class TestEndpointObservation:
    """Section 5.3: ``A(alpha, q_r)`` is "frequently maximized when
    q_r = 1 or q_r = floor(T/2)". An observation about curves, not a
    search strategy: the optimizer never relies on it."""

    def test_holds_in_value_on_the_paper_closed_forms(self):
        """On all fifteen 101-site closed-form curves (ring / complete /
        bus at the paper's five alphas) the optimum *value* is an
        endpoint's to 1e-12. The optimum *location* is not always one:
        complete-101 and bus-101 at alpha < 1 are flat to within the tie
        tolerance from about floor(T/4) up to floor(T/2), and the
        smallest-q_r tie-break returns the plateau's first member, not
        the endpoint it reaches."""
        interior = []
        for family in CLOSED_FORM_FAMILIES:
            density = closed_form_density(
                family, PAPER_N_SITES, PAPER_RELIABILITY, PAPER_RELIABILITY
            )
            model = model_from(density)
            q_max = model.max_read_quorum
            for alpha in PAPER_ALPHAS:
                best = optimal_read_quorum(model, alpha)
                at_ends = max(float(model.availability(alpha, 1)),
                              float(model.availability(alpha, q_max)))
                assert best.availability == pytest.approx(at_ends, abs=1e-12), (
                    family, alpha)
                if best.read_quorum not in (1, q_max):
                    curve = model.curve(alpha)
                    tie_class = np.nonzero(curve >= curve.max() - 1e-12)[0] + 1
                    assert best.read_quorum == tie_class[0]
                    assert tie_class[-1] == q_max
                    assert tie_class.size == q_max - best.read_quorum + 1
                    interior.append((family, alpha))
        assert interior == [
            (family, alpha)
            for family in ("complete", "bus")
            for alpha in (0.0, 0.25, 0.5, 0.75)
        ]

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
