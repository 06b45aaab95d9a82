"""The production enumeration kernel and the ``backend=`` selector
(DESIGN.md §15).

- the collapse-DFS (what ``enumerate_density_matrix`` runs by default)
  agrees with the per-state oracle loop of ``tests/oracles.py`` to well
  inside the ≤1e-12 differential tier and is deterministic for a fixed
  row cap;
- ``backend=`` has two values and no other source: an unknown name is an
  error, and the cap errors name the component count, the backend, and
  what to use instead.

The exact-order witness's bitwise contract is pinned in
``tests/analytic/test_kernels.py``. (The file keeps the name of the
module these kernels used to live in so its test ids stay stable.)
"""

import numpy as np
import pytest

from repro.analytic import cache as density_cache
from repro.analytic.enumeration import (
    BACKENDS,
    MAX_COMPONENTS,
    MAX_COMPONENTS_EXACT_ORDER,
    enumerate_density,
    enumerate_density_matrix,
    resolve_backend,
)
from repro.errors import DensityError
from repro.topology.generators import bus, fully_connected, ring, star
from tests.oracles import enumerate_density_matrix_reference


@pytest.fixture(autouse=True)
def _no_cache():
    with density_cache.disabled():
        yield


def _bus_case(n_sites, p, r):
    topo = bus(n_sites)
    site_rel = np.concatenate([np.full(n_sites, p), [r]])
    link_rel = np.ones(topo.n_links)
    return topo, site_rel, link_rel


CASES = [
    pytest.param(ring(4), 0.8, 0.7, id="ring4"),
    pytest.param(ring(5), 0.96, 0.96, id="ring5"),
    pytest.param(fully_connected(4), 0.9, 0.6, id="complete4"),
    pytest.param(ring(4, votes=[2, 1, 1, 3]), 0.85, 0.75, id="ring4-weighted"),
]


class TestVectorizedCollapseDFS:
    """Regrouped accumulation: ≤1e-12 tier, deterministic, exact caps."""

    @pytest.mark.parametrize("topo,p,r", CASES)
    def test_matches_reference_within_tier(self, topo, p, r):
        ref = enumerate_density_matrix_reference(topo, p, r)
        vec = enumerate_density_matrix(topo, p, r)
        assert np.abs(vec - ref).max() <= 1e-13
        np.testing.assert_allclose(vec.sum(axis=1), 1.0, atol=1e-12)

    def test_pinned_sites_and_links(self):
        topo = star(6, hub=0)
        p = np.array([1.0, 0.9, 0.0, 0.8, 1.0, 0.7])
        ref = enumerate_density_matrix_reference(topo, p, 0.85)
        vec = enumerate_density_matrix(topo, p, 0.85)
        assert np.abs(vec - ref).max() <= 1e-13

    def test_bus_star_pinned(self):
        topo, site_rel, link_rel = _bus_case(6, 0.9, 0.8)
        ref = enumerate_density_matrix_reference(topo, site_rel, link_rel)
        vec = enumerate_density_matrix(topo, site_rel, link_rel)
        assert np.abs(vec - ref).max() <= 1e-13

    def test_deterministic_for_fixed_row_cap(self):
        topo = ring(7)
        one = enumerate_density_matrix(topo, 0.9, 0.8)
        two = enumerate_density_matrix(topo, 0.9, 0.8)
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("chunk_size", [1, 64, 500, 100_000])
    def test_row_cap_invariance(self, chunk_size):
        # The DFS split points move with the cap, which may regroup the
        # accumulation differently — results agree within the tier (and
        # tiny caps exercise the stack-splitting path).
        topo = ring(6)
        ref = enumerate_density_matrix_reference(topo, 0.9, 0.8)
        vec = enumerate_density_matrix(topo, 0.9, 0.8,
                                       chunk_size=chunk_size)
        assert np.abs(vec - ref).max() <= 1e-13

    def test_single_row_matches_full_matrix(self):
        topo = ring(5)
        full = enumerate_density_matrix(topo, 0.9, 0.8)
        for site in range(topo.n_sites):
            row = enumerate_density(topo, site, 0.9, 0.8)
            assert np.array_equal(full[site], row)

    def test_beyond_the_reference_cap(self):
        # 26 free components: refused by the exact-order witness, exact
        # through the DFS (ring(13) has a closed form to check against
        # at the golden 1e-9 tier).
        from repro.analytic.ring import ring_density_matrix

        topo = ring(13)
        vec = enumerate_density_matrix(topo, 0.95, 0.9)
        closed = ring_density_matrix(topo, 0.95, 0.9)
        np.testing.assert_allclose(vec, closed, atol=1e-9)


class TestBackendSelection:
    def test_explicit_names_resolve_to_themselves(self):
        assert BACKENDS == ("collapse-dfs", "exact-order")
        for name in BACKENDS:
            assert resolve_backend(name) == name
        assert resolve_backend() == resolve_backend(None) == "collapse-dfs"

    def test_unknown_backend_is_an_error(self):
        for name in ("fortran", "auto", "compiled"):
            with pytest.raises(DensityError, match="unknown enumeration backend"):
                enumerate_density_matrix(ring(4), 0.9, 0.9, backend=name)

    def test_cap_error_names_count_backend_and_knob(self):
        with pytest.raises(DensityError) as err:
            enumerate_density_matrix(ring(13), 0.9, 0.9, backend="exact-order")
        message = str(err.value)
        assert "26 fallible components" in message
        assert f"{MAX_COMPONENTS_EXACT_ORDER}-component" in message
        assert "'exact-order' backend" in message
        assert "'collapse-dfs'" in message
        assert str(MAX_COMPONENTS) in message

    def test_cap_error_past_the_compiled_cap(self):
        with pytest.raises(DensityError) as err:
            enumerate_density_matrix(ring(20), 0.9, 0.9)
        message = str(err.value)
        assert "40 fallible components" in message
        assert f"{MAX_COMPONENTS}-component" in message
        assert "montecarlo_density" in message

    def test_regrouped_results_cached_under_separate_key(self):
        from repro.analytic.cache import enumeration_key

        topo = ring(4)
        rel = np.full(4, 0.9)
        exact = enumeration_key(topo, rel, rel, None)
        regrouped = enumeration_key(topo, rel, rel, None, numerics="regrouped")
        assert exact != regrouped
