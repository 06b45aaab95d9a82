"""Unit tests for the topology generators."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.generators import (
    PAPER_CHORD_COUNTS,
    bus,
    erdos_renyi,
    fully_connected,
    grid,
    paper_topology,
    random_tree,
    ring,
    ring_with_chords,
    star,
)


class TestRing:
    def test_basic_shape(self):
        topo = ring(10)
        assert topo.n_sites == 10
        assert topo.n_links == 10
        assert topo.is_ring()

    def test_minimum_size(self):
        with pytest.raises(TopologyError):
            ring(2)

    def test_custom_votes(self):
        topo = ring(4, votes=[2, 1, 1, 1])
        assert topo.total_votes == 5


class TestRingWithChords:
    def test_zero_chords_is_ring(self):
        topo = ring_with_chords(11, 0)
        assert topo.is_ring()
        assert "topology-0" in topo.name

    @pytest.mark.parametrize("n_chords", [1, 2, 4, 16])
    def test_link_count(self, n_chords):
        topo = ring_with_chords(21, n_chords)
        assert topo.n_links == 21 + n_chords

    def test_all_chords_gives_complete(self):
        n = 9
        topo = ring_with_chords(n, n * (n - 3) // 2)
        assert topo.is_fully_connected()

    def test_too_many_chords(self):
        with pytest.raises(TopologyError):
            ring_with_chords(9, 9 * (9 - 3) // 2 + 1)

    def test_chords_are_not_ring_links(self):
        topo = ring_with_chords(15, 5)
        ring_links = {(i, (i + 1) % 15) for i in range(15)}
        ring_links = {tuple(sorted(l)) for l in ring_links}
        chords = {l.endpoints() for l in topo.links} - ring_links
        assert len(chords) == 5


class TestFullyConnected:
    def test_link_count(self):
        topo = fully_connected(8)
        assert topo.n_links == 28
        assert topo.is_fully_connected()

    def test_single_site(self):
        assert fully_connected(1).n_links == 0


class TestStarAndBus:
    def test_star_shape(self):
        topo = star(6, hub=2)
        assert topo.n_links == 5
        assert topo.degree(2) == 5

    def test_star_bad_hub(self):
        with pytest.raises(TopologyError):
            star(4, hub=4)

    def test_bus_hub_has_zero_votes(self):
        topo = bus(5)
        assert topo.n_sites == 6  # 5 sites + hub
        assert topo.votes[5] == 0
        assert topo.total_votes == 5

    def test_bus_votes_without_hub_entry(self):
        topo = bus(3, votes=[2, 1, 1])
        assert topo.total_votes == 4
        assert topo.votes[3] == 0

    def test_bus_votes_wrong_length(self):
        with pytest.raises(TopologyError):
            bus(3, votes=[1, 1])


class TestGrid:
    def test_link_count(self):
        topo = grid(3, 4)
        # 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8
        assert topo.n_sites == 12
        assert topo.n_links == 17
        assert topo.is_connected()

    def test_degenerate_line(self):
        topo = grid(1, 5)
        assert topo.n_links == 4

    def test_bad_dimensions(self):
        with pytest.raises(TopologyError):
            grid(0, 3)


class TestRandomFamilies:
    def test_tree_is_connected_and_minimal(self):
        topo = random_tree(30, seed=7)
        assert topo.n_links == 29
        assert topo.is_connected()

    def test_tree_deterministic_by_seed(self):
        assert random_tree(12, seed=3) == random_tree(12, seed=3)

    def test_gnp_extremes(self):
        assert erdos_renyi(6, 0.0, seed=0).n_links == 0
        assert erdos_renyi(6, 1.0, seed=0).is_fully_connected()

    def test_gnp_bad_probability(self):
        with pytest.raises(TopologyError):
            erdos_renyi(5, 1.5)

    def test_gnp_ensure_connected(self):
        topo = erdos_renyi(25, 0.02, seed=5, ensure_connected=True)
        assert topo.is_connected()


class TestPaperTopology:
    @pytest.mark.parametrize("chords", PAPER_CHORD_COUNTS[:-1])
    def test_link_counts(self, chords):
        topo = paper_topology(chords)
        assert topo.n_sites == 101
        assert topo.n_links == 101 + chords

    def test_fully_connected_case(self):
        topo = paper_topology(4949)
        assert topo.is_fully_connected()
        assert topo.n_links == 101 * 100 // 2
