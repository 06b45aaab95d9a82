"""Unit tests for the deterministic chord placement."""

import pytest

from repro.errors import TopologyError
from repro.topology.chords import chord_endpoints, max_chords


class TestMaxChords:
    def test_matches_complete_graph(self):
        for n in (3, 4, 10, 101):
            assert max_chords(n) == n * (n - 1) // 2 - n

    def test_rejects_tiny_rings(self):
        with pytest.raises(TopologyError):
            max_chords(2)


class TestChordEndpoints:
    def test_count_and_uniqueness(self):
        chords = chord_endpoints(101, 256)
        assert len(chords) == 256
        assert len(set(chords)) == 256

    def test_no_ring_links_emitted(self):
        n = 20
        chords = chord_endpoints(n, max_chords(n))
        for a, b in chords:
            dist = min((b - a) % n, (a - b) % n)
            assert dist >= 2, f"chord ({a},{b}) is a ring link"

    def test_exhausts_exactly_all_chords(self):
        n = 12
        chords = chord_endpoints(n, max_chords(n))
        assert len(chords) == max_chords(n)
        assert len(set(chords)) == max_chords(n)

    def test_deterministic(self):
        assert chord_endpoints(31, 16) == chord_endpoints(31, 16)

    def test_prefix_property(self):
        """Asking for fewer chords yields a prefix — topologies nest."""
        assert chord_endpoints(101, 4) == chord_endpoints(101, 16)[:4]

    def test_longest_first(self):
        n = 21
        chords = chord_endpoints(n, 5)
        for a, b in chords:
            dist = min((b - a) % n, (a - b) % n)
            assert dist == n // 2  # first chords are antipodal

    def test_zero_chords(self):
        assert chord_endpoints(11, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(TopologyError):
            chord_endpoints(11, -1)

    def test_over_limit_rejected(self):
        with pytest.raises(TopologyError):
            chord_endpoints(10, max_chords(10) + 1)

    def test_first_chords_spread_around_ring(self):
        """Consecutive same-distance chords should not share endpoints."""
        chords = chord_endpoints(101, 8)
        endpoints = [s for pair in chords for s in pair]
        assert len(set(endpoints)) == len(endpoints)

    def test_even_ring_antipodal_class(self):
        n = 10
        chords = chord_endpoints(n, n // 2)  # the whole antipodal class
        dists = {min((b - a) % n, (a - b) % n) for a, b in chords}
        assert dists == {n // 2}
        assert len(set(chords)) == n // 2
