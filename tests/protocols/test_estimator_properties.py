"""Property tests for the online density estimator (Hypothesis).

The serving layer trusts three algebraic facts about
:class:`OnlineDensityEstimator`: distributed summaries can be merged in
any order (the section 4.2 exchange protocol), merging local estimators
is exactly equivalent to one estimator seeing the interleaved stream
(at forgetting factor 1 — discounting is order-sensitive by design), and
the read-out is always a proper density (non-negative weights, rows
normalized). These pin all three over generated observation streams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.estimator import OnlineDensityEstimator
from tests.protocols.test_estimator import observe_one

N_SITES = 4
TOTAL_VOTES = 6

observations = st.lists(
    st.tuples(
        st.integers(0, N_SITES - 1),
        st.integers(0, TOTAL_VOTES),
        st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=40,
)


def _estimator(factor: float = 1.0) -> OnlineDensityEstimator:
    return OnlineDensityEstimator(N_SITES, TOTAL_VOTES, forgetting_factor=factor)


def _fed(stream, factor: float = 1.0) -> OnlineDensityEstimator:
    est = _estimator(factor)
    for site, votes, weight in stream:
        observe_one(est, site, votes, weight)
    return est


class TestMergeAlgebra:
    @given(observations, observations)
    @settings(max_examples=60)
    def test_merge_is_order_insensitive(self, stream_a, stream_b):
        ab = _fed(stream_a)
        ab.merge(_fed(stream_b))
        ba = _fed(stream_b)
        ba.merge(_fed(stream_a))
        np.testing.assert_array_equal(ab._weights, ba._weights)

    @given(observations, observations, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_merge_equals_interleaved_stream(self, stream_a, stream_b, rng):
        """Two local estimators merged == one estimator fed any interleaving.

        Holds exactly (not approximately) at forgetting factor 1, where
        observation order cannot matter: accumulation is plain addition.
        """
        merged = _fed(stream_a)
        merged.merge(_fed(stream_b))

        interleaved = list(stream_a) + list(stream_b)
        rng.shuffle(interleaved)
        single = _fed(interleaved)

        np.testing.assert_allclose(
            merged._weights, single._weights, rtol=0, atol=1e-9
        )
        assert merged.total_weight == pytest.approx(
            single.total_weight, rel=1e-9, abs=1e-9
        )

    @given(observations)
    @settings(max_examples=60)
    def test_merge_identity(self, stream):
        """Merging an empty estimator changes nothing."""
        est = _fed(stream)
        before = est._weights.copy()
        est.merge(_estimator())
        np.testing.assert_array_equal(est._weights, before)


class TestDecayAndNormalization:
    @given(observations, st.floats(0.01, 1.0, allow_nan=False))
    @settings(max_examples=60)
    def test_decay_never_negative(self, stream, factor):
        est = _fed(stream, factor)
        assert (est._weights >= 0.0).all()
        assert est.total_weight >= 0.0
        for site in range(N_SITES):
            assert est.site_weight(site) >= 0.0

    @given(observations, st.floats(0.01, 1.0, allow_nan=False))
    @settings(max_examples=60)
    def test_decay_bounded_by_undiscounted_total(self, stream, factor):
        """Forgetting can only shrink mass relative to factor 1."""
        discounted = _fed(stream, factor)
        full = _fed(stream, 1.0)
        assert discounted.total_weight <= full.total_weight + 1e-9

    @given(observations, st.floats(0.05, 1.0, allow_nan=False))
    @settings(max_examples=60)
    def test_density_matrix_rows_normalized(self, stream, factor):
        # Guarantee every site at least one observation with positive
        # weight so the matrix is defined (the serving layer does the
        # same via snapshot-style observe_all calls).
        est = _fed(stream, factor)
        est.observe_all(np.full(N_SITES, TOTAL_VOTES), weight=1.0)
        matrix = est.density_matrix()
        assert matrix.shape == (N_SITES, TOTAL_VOTES + 1)
        assert (matrix >= 0.0).all()
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)

    @given(observations)
    @settings(max_examples=60)
    def test_reset_clears_everything(self, stream):
        est = _fed(stream)
        est.reset()
        assert est.total_weight == 0.0
