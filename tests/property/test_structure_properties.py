"""Property-based tests for topology, connectivity, and densities."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.density import density_matrix_mean, normalize_density
from repro.analytic.enumeration import enumerate_density_matrix
from repro.analytic.ring import ring_density
from repro.connectivity.components import (
    component_labels,
    component_vote_totals,
)
from repro.protocols.estimator import OnlineDensityEstimator
from repro.topology.chords import chord_endpoints, max_chords
from repro.topology.generators import ring_with_chords
from tests.oracles import minlabel_component_labels


@st.composite
def random_networks(draw):
    """A chorded ring with random up/down masks."""
    n = draw(st.integers(3, 12))
    chords = draw(st.integers(0, min(6, max_chords(n))))
    topo = ring_with_chords(n, chords)
    site_up = np.asarray(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    m = topo.n_links
    link_up = np.asarray(
        draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool
    )
    return topo, site_up, link_up


class TestConnectivityProperties:
    @given(random_networks())
    @settings(max_examples=80)
    def test_backends_agree(self, net):
        topo, site_up, link_up = net
        a = component_labels(topo, site_up, link_up)
        b = minlabel_component_labels(topo, site_up, link_up)
        assert ((a < 0) == (b < 0)).all()
        n = topo.n_sites
        same_a = a[:, None] == a[None, :]
        same_b = b[:, None] == b[None, :]
        up = a >= 0
        mask = up[:, None] & up[None, :]
        assert (same_a[mask] == same_b[mask]).all()

    @given(random_networks())
    @settings(max_examples=80)
    def test_vote_totals_partition_total(self, net):
        """Summing each component's votes once recovers the votes of all
        up sites; down sites carry zero."""
        topo, site_up, link_up = net
        labels = component_labels(topo, site_up, link_up)
        totals = component_vote_totals(labels, topo.votes)
        assert (totals[~site_up] == 0).all()
        # Per component, every member must report the same total, equal to
        # the sum of member votes.
        for label in set(labels[labels >= 0].tolist()):
            members = np.nonzero(labels == label)[0]
            expected = int(topo.votes[members].sum())
            assert (totals[members] == expected).all()

    @given(random_networks())
    @settings(max_examples=80)
    def test_links_never_bridge_components(self, net):
        topo, site_up, link_up = net
        labels = component_labels(topo, site_up, link_up)
        for link_id, link in enumerate(topo.links):
            if link_up[link_id] and site_up[link.a] and site_up[link.b]:
                assert labels[link.a] == labels[link.b]


class TestChordProperties:
    @given(st.integers(5, 60), st.data())
    @settings(max_examples=60)
    def test_chords_unique_valid_and_prefix_stable(self, n, data):
        k = data.draw(st.integers(0, min(40, max_chords(n))))
        chords = chord_endpoints(n, k)
        assert len(chords) == k
        assert len(set(chords)) == k
        for a, b in chords:
            assert 0 <= a < b < n
            dist = min((b - a) % n, (a - b) % n)
            assert dist >= 2
        if k > 1:
            assert chord_endpoints(n, k - 1) == chords[:-1]


class TestDensityProperties:
    @given(st.integers(3, 30), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=60)
    def test_ring_density_is_distribution(self, n, p, r):
        f = ring_density(n, p, r)
        assert f.shape == (n + 1,)
        assert (f >= -1e-15).all()
        assert abs(f.sum() - 1.0) < 1e-9
        assert f[0] == np.float64(1.0) - p

    @given(
        st.integers(3, 6),
        st.floats(0.1, 0.9),
        st.floats(0.1, 0.9),
    )
    @settings(max_examples=20, deadline=None)
    def test_enumeration_rows_are_distributions(self, n, p, r):
        matrix = enumerate_density_matrix(ring_with_chords(n, 0), p, r)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
        assert (matrix >= 0).all()

    @given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=20).filter(
        lambda v: sum(v) > 0))
    def test_normalize_idempotent(self, raw):
        f = normalize_density(np.asarray(raw))
        again = normalize_density(f)
        np.testing.assert_allclose(f, again, atol=1e-12)

    @given(st.integers(1, 6), st.integers(1, 10), st.data())
    @settings(max_examples=40)
    def test_mixture_preserves_mass(self, n_sites, T, data):
        rows = []
        for _ in range(n_sites):
            raw = np.asarray(
                data.draw(st.lists(st.floats(0.0, 1.0), min_size=T + 1, max_size=T + 1))
            ) + 1e-9
            rows.append(raw / raw.sum())
        matrix = np.stack(rows)
        mixed = density_matrix_mean(matrix)
        assert abs(mixed.sum() - 1.0) < 1e-9


class TestEstimatorProperties:
    @given(st.integers(1, 5), st.integers(1, 8), st.data())
    @settings(max_examples=50)
    def test_estimator_density_matches_empirical_frequencies(self, n_sites, T, data):
        est = OnlineDensityEstimator(n_sites, T)
        n_obs = data.draw(st.integers(1, 30))
        seen = np.zeros((n_sites, T + 1))
        for _ in range(n_obs):
            totals = np.asarray(
                data.draw(
                    st.lists(st.integers(0, T), min_size=n_sites, max_size=n_sites)
                )
            )
            est.observe_all(totals)
            seen[np.arange(n_sites), totals] += 1
        matrix = est.density_matrix()
        np.testing.assert_allclose(matrix, seen / n_obs, atol=1e-12)

    @given(st.integers(1, 4), st.integers(1, 6), st.data())
    @settings(max_examples=50)
    def test_merge_equals_combined_stream(self, n_sites, T, data):
        a = OnlineDensityEstimator(n_sites, T)
        b = OnlineDensityEstimator(n_sites, T)
        combined = OnlineDensityEstimator(n_sites, T)
        for target in (a, b):
            for _ in range(data.draw(st.integers(1, 10))):
                totals = np.asarray(
                    data.draw(
                        st.lists(st.integers(0, T), min_size=n_sites, max_size=n_sites)
                    )
                )
                target.observe_all(totals)
                combined.observe_all(totals)
        a.merge(b)
        np.testing.assert_allclose(a.density_matrix(), combined.density_matrix())
