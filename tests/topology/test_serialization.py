"""Unit tests for topology serialization and networkx interop."""

import json
import sys

import pytest

from repro.errors import TopologyError
from repro.topology.generators import ring_with_chords
from repro.topology.model import Topology
from repro.topology.serialization import from_dict, from_networkx, to_dict, to_networkx


class TestDictRoundTrip:
    def test_round_trip_preserves_everything(self):
        topo = ring_with_chords(11, 3).with_votes([2] * 10 + [1])
        again = from_dict(to_dict(topo))
        assert again == topo
        assert again.name == topo.name

    def test_dict_is_json_compatible(self):
        payload = to_dict(ring_with_chords(7, 2))
        assert from_dict(json.loads(json.dumps(payload))) == ring_with_chords(7, 2)

    def test_missing_key_raises(self):
        payload = to_dict(ring_with_chords(7, 1))
        del payload["links"]
        with pytest.raises(TopologyError):
            from_dict(payload)

    def test_unknown_schema_raises(self):
        payload = to_dict(ring_with_chords(7, 1))
        payload["schema"] = 99
        with pytest.raises(TopologyError):
            from_dict(payload)


class TestNetworkxMissing:
    def test_interop_names_the_remedy_and_dict_form_still_works(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)  # import raises ImportError
        topo = ring_with_chords(7, 2)
        with pytest.raises(TopologyError, match=r"pip install 'repro\[interop\]'"):
            to_networkx(topo)
        with pytest.raises(TopologyError, match=r"pip install 'repro\[interop\]'"):
            from_networkx(object())
        assert from_dict(to_dict(topo)) == topo


@pytest.fixture
def nx():
    """networkx, or skip: it is an optional extra."""
    return pytest.importorskip("networkx")


class TestNetworkxInterop:
    def test_round_trip(self, nx):
        topo = ring_with_chords(9, 2).with_votes([1, 2, 1, 1, 3, 1, 1, 1, 1])
        again = from_networkx(to_networkx(topo))
        assert again == topo

    def test_votes_attribute_exported(self, nx):
        graph = to_networkx(Topology(3, [(0, 1)], votes=[5, 1, 1]))
        assert graph.nodes[0]["votes"] == 5

    def test_missing_votes_default_to_one(self, nx):
        graph = nx.path_graph(4)
        topo = from_networkx(graph)
        assert topo.total_votes == 4

    def test_arbitrary_labels_relabelled_sorted(self, nx):
        graph = nx.Graph()
        graph.add_edge("c", "a")
        graph.add_edge("a", "b")
        topo = from_networkx(graph)
        # sorted labels: a->0, b->1, c->2
        assert topo.has_link(0, 2) and topo.has_link(0, 1)

    def test_self_loops_dropped(self, nx):
        graph = nx.Graph()
        graph.add_edge(0, 0)
        graph.add_edge(0, 1)
        topo = from_networkx(graph)
        assert topo.n_links == 1

    def test_empty_graph_rejected(self, nx):
        with pytest.raises(TopologyError):
            from_networkx(nx.Graph())
