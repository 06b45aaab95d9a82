"""The enumeration kernel, the collapse-DFS (DESIGN.md §15).

- it agrees with the per-state oracle loop of ``tests/oracles.py`` to
  well inside the ≤1e-12 differential tier, whatever its row cap
  (``enumeration.ROW_CAP``, monkeypatched here), and is deterministic
  for a fixed cap;
- it is the only kernel: the functions take no ``backend=``,
  ``chunk_size=`` or ``site=``, and the cap error names the component
  count and what to use instead.

The bitwise pins of its output are in
``tests/analytic/test_enumeration.py``. (The file keeps the name of the
module the kernel used to live in so its test ids stay stable.)
"""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analytic import cache as density_cache
from repro.analytic import enumeration
from repro.analytic.enumeration import (
    MAX_COMPONENTS,
    enumerate_density,
    enumerate_density_matrix,
    resolve_backend,
)
from repro.errors import DensityError
from repro.topology.generators import bus, fully_connected, ring, star
from repro.topology.model import Topology
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

    def test_deterministic_for_fixed_row_cap(self, monkeypatch):
        monkeypatch.setattr(enumeration, "ROW_CAP", 64)
        topo = ring(7)
        one = enumerate_density_matrix(topo, 0.9, 0.8)
        two = enumerate_density_matrix(topo, 0.9, 0.8)
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("row_cap", [1, 64, 500, 100_000])
    def test_row_cap_invariance(self, monkeypatch, row_cap):
        # The DFS split points move with the cap, which may regroup the
        # accumulation differently — results agree within the tier (and
        # tiny caps exercise the stack-splitting path).
        monkeypatch.setattr(enumeration, "ROW_CAP", row_cap)
        topo = ring(6)
        ref = enumerate_density_matrix_reference(topo, 0.9, 0.8)
        vec = enumerate_density_matrix(topo, 0.9, 0.8)
        assert np.abs(vec - ref).max() <= 1e-13

    def test_single_row_matches_full_matrix(self):
        topo = ring(5)
        full = enumerate_density_matrix(topo, 0.9, 0.8)
        for site in range(topo.n_sites):
            row = enumerate_density(topo, site, 0.9, 0.8)
            assert np.array_equal(full[site], row)

    def test_beyond_the_reference_cap(self):
        # 26 free components, 2^26 states: past what the tests' exact
        # references reach in seconds; ring(13) has a closed form to
        # check against at the golden 1e-9 tier.
        from repro.analytic.ring import ring_density_matrix

        topo = ring(13)
        vec = enumerate_density_matrix(topo, 0.95, 0.9)
        closed = ring_density_matrix(topo, 0.95, 0.9)
        np.testing.assert_allclose(vec, closed, atol=1e-9)


class TestBackendSelection:
    """There is nothing to select: one kernel, and no knob reaches it."""

    def test_unknown_backend_is_an_error(self):
        for name in ("exact-order", "collapse-dfs", "auto"):
            with pytest.raises(TypeError):
                enumerate_density_matrix(ring(4), 0.9, 0.9, backend=name)

    def test_signatures_are_the_inputs_alone(self):
        def params(fn):
            return list(inspect.signature(fn).parameters)

        assert params(enumerate_density_matrix) == ["topology", "p", "r"]
        assert params(enumerate_density) == ["topology", "site", "p", "r"]
        assert resolve_backend() == "collapse-dfs"

    def test_cap_error_past_the_compiled_cap(self):
        with pytest.raises(DensityError) as err:
            enumerate_density_matrix(ring(20), 0.9, 0.9)
        message = str(err.value)
        assert "40 fallible components" in message
        assert f"{MAX_COMPONENTS}-component" in message
        assert "montecarlo_density" in message
        assert "backend" not in message


# ----------------------------------------------------------------------
# Hypothesis differential against the per-state loop
# ----------------------------------------------------------------------

#: A reliability: pinned down, pinned up, or fallible.
_rel = st.one_of(st.sampled_from([0.0, 1.0]),
                 st.floats(0.01, 0.99, allow_nan=False))


@st.composite
def _networks(draw):
    """A small network: any link subset (disconnected ones included),
    votes 0..3 with at least one, and per-component reliabilities that
    may be exactly 0 or 1; at most 2^12 states for the reference loop."""
    n = draw(st.integers(1, 5))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    links = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=min(len(pairs), 7))) if pairs else []
    votes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                 .filter(lambda v: sum(v) > 0))
    topo = Topology(n, links, votes=votes)
    site_rel = np.array(draw(st.lists(_rel, min_size=n, max_size=n)))
    link_rel = np.array(draw(st.lists(_rel, min_size=len(links),
                                      max_size=len(links))), dtype=np.float64)
    return topo, site_rel, link_rel


class TestDifferential:
    """The collapse-DFS against the per-state loop at ≤1e-12, and every
    single-site row equal to its matrix row, on generated networks and
    on the degenerate inputs as explicit examples."""

    @settings(max_examples=60, deadline=None)
    @given(_networks())
    @example((Topology(1, [], votes=[1]), np.array([0.7]), np.empty(0)))
    @example((Topology(1, [], votes=[1]), np.array([1.0]), np.empty(0)))
    @example((Topology(3, [(0, 1), (1, 2)], votes=[1, 0, 0]),
              np.array([0.8, 0.6, 0.9]), np.array([0.7, 0.5])))
    @example((Topology(4, [(0, 1), (1, 2), (2, 3), (0, 3)], votes=[0, 2, 0, 1]),
              np.array([0.9, 0.8, 0.7, 0.6]), np.array([0.5, 0.6, 0.7, 0.8])))
    @example((Topology(5, [(0, 1), (2, 3)], votes=[1, 2, 1, 1, 3]),
              np.array([0.9, 0.8, 0.7, 0.6, 0.5]), np.array([0.75, 0.65])))
    @example((Topology(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
              np.array([0.0, 1.0, 0.6, 1.0, 0.0]),
              np.array([1.0, 0.0, 0.4, 1.0, 0.3])))
    @example((Topology(3, [(0, 1), (1, 2), (0, 2)]),
              np.ones(3), np.ones(3)))
    @example(_bus_case(4, 0.9, 0.7))
    def test_matches_the_per_state_loop(self, network):
        topo, site_rel, link_rel = network
        ref = enumerate_density_matrix_reference(topo, site_rel, link_rel)
        matrix = enumerate_density_matrix(topo, site_rel, link_rel)
        assert matrix.shape == (topo.n_sites, topo.total_votes + 1)
        assert np.abs(matrix - ref).max() <= 1e-12
        for site in range(topo.n_sites):
            row = enumerate_density(topo, site, site_rel, link_rel)
            assert np.array_equal(row, matrix[site])
