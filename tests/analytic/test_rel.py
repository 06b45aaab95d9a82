"""Unit tests for Gilbert's Rel(m, r) recursion."""

import itertools

import numpy as np
import pytest

from repro.analytic.rel import rel, rel_table
from repro.errors import DensityError


def rel_bruteforce(m: int, r: float) -> float:
    """Exact Rel by enumerating all link states of K_m (tests only)."""
    pairs = list(itertools.combinations(range(m), 2))
    total = 0.0
    for mask in itertools.product([0, 1], repeat=len(pairs)):
        prob = 1.0
        parent = list(range(m))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for up, (a, b) in zip(mask, pairs):
            prob *= r if up else (1 - r)
            if up:
                parent[find(a)] = find(b)
        if len({find(i) for i in range(m)}) == 1:
            total += prob
    return total


class TestRelBaseCases:
    def test_trivial_sizes(self):
        assert rel(0, 0.5) == 1.0
        assert rel(1, 0.5) == 1.0

    def test_two_sites_is_link_probability(self):
        assert rel(2, 0.37) == pytest.approx(0.37)

    def test_perfect_links(self):
        for m in range(1, 8):
            assert rel(m, 1.0) == pytest.approx(1.0)

    def test_no_links(self):
        assert rel(2, 0.0) == 0.0
        assert rel(5, 0.0) == 0.0

    def test_negative_m_rejected(self):
        with pytest.raises(DensityError):
            rel(-1, 0.5)

    def test_bad_reliability_rejected(self):
        with pytest.raises(DensityError):
            rel(3, 1.5)


class TestRelAgainstBruteForce:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.9])
    def test_matches_enumeration(self, m, r):
        assert rel(m, r) == pytest.approx(rel_bruteforce(m, r), abs=1e-12)

    def test_three_sites_closed_form(self):
        # P(K3 connected) = r^3 + 3 r^2 (1-r)
        r = 0.7
        assert rel(3, r) == pytest.approx(r**3 + 3 * r**2 * (1 - r))


class TestRelProperties:
    def test_monotone_in_r(self):
        values = [rel(6, r) for r in np.linspace(0.05, 0.95, 10)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bounded(self):
        table = rel_table(40, 0.3)
        assert ((0.0 <= table) & (table <= 1.0)).all()

    def test_large_m_high_r_tends_to_one(self):
        # With r = .96 a 101-clique is connected almost surely.
        assert rel(101, 0.96) > 0.999

    def test_table_consistent_with_scalar(self):
        table = rel_table(10, 0.6)
        for m in range(11):
            assert table[m] == pytest.approx(rel(m, 0.6))
