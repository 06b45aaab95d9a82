"""Topology serialization and networkx interop.

The dict form is plain JSON-compatible data so experiment configurations
can be checked into a repository or shipped between processes; the
networkx form exists because downstream users of a quorum library usually
already hold their network as a ``networkx.Graph``. networkx is an
optional extra (``pip install 'repro[interop]'``) imported only by the two
functions that use it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.errors import TopologyError
from repro.topology.model import Topology

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["to_dict", "from_dict", "to_networkx", "from_networkx"]

_SCHEMA_VERSION = 1


def to_dict(topology: Topology) -> Dict[str, Any]:
    """Serialize ``topology`` to a JSON-compatible dict."""
    return {
        "schema": _SCHEMA_VERSION,
        "name": topology.name,
        "n_sites": topology.n_sites,
        "links": [list(link.endpoints()) for link in topology.links],
        "votes": topology.votes.tolist(),
    }


def from_dict(payload: Dict[str, Any]) -> Topology:
    """Rebuild a topology from :func:`to_dict` output."""
    try:
        schema = payload["schema"]
        if schema != _SCHEMA_VERSION:
            raise TopologyError(f"unsupported topology schema {schema!r}")
        return Topology(
            payload["n_sites"],
            [tuple(pair) for pair in payload["links"]],
            votes=payload["votes"],
            name=payload.get("name", ""),
        )
    except KeyError as missing:
        raise TopologyError(f"topology dict missing key {missing}") from None


def _networkx():
    """Import networkx, or name the extra that provides it."""
    try:
        import networkx
    except ImportError:
        raise TopologyError(
            "networkx interop needs the optional networkx package: "
            "pip install 'repro[interop]'"
        ) from None
    return networkx


def to_networkx(topology: Topology) -> "nx.Graph":
    """Convert to a ``networkx.Graph`` with a ``votes`` node attribute."""
    graph = _networkx().Graph(name=topology.name)
    for site in topology.sites():
        graph.add_node(site, votes=int(topology.votes[site]))
    graph.add_edges_from(link.endpoints() for link in topology.links)
    return graph


def from_networkx(graph: "nx.Graph", name: str = "") -> Topology:
    """Convert a ``networkx.Graph`` into a :class:`Topology`.

    Node labels must be hashable; they are relabelled to ``0..n-1`` in
    sorted order (sorted by ``repr`` when labels are not directly
    comparable). A ``votes`` node attribute, when present, carries over;
    missing attributes default to one vote.
    """
    # Only the graph's own methods are used below; without networkx fail
    # with the remedy, not with an AttributeError on whatever was passed.
    _networkx()
    nodes = list(graph.nodes)
    if not nodes:
        raise TopologyError("cannot build a topology from an empty graph")
    try:
        ordered = sorted(nodes)
    except TypeError:
        ordered = sorted(nodes, key=repr)
    index = {node: i for i, node in enumerate(ordered)}
    links = [(index[a], index[b]) for a, b in graph.edges if a != b]
    votes = [int(graph.nodes[node].get("votes", 1)) for node in ordered]
    return Topology(
        len(ordered),
        links,
        votes=votes,
        name=name or (graph.name if isinstance(graph.name, str) else ""),
    )
