"""Immutable topology model: sites, links, and vote assignments.

A :class:`Topology` is the static description of the network — which sites
exist, which pairs of sites share a bi-directional link, and how many votes
each site's copy of the data item carries. Dynamic state (which sites/links
are currently up) lives in :mod:`repro.simulation`, never here, so a single
``Topology`` can safely be shared across batches and threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError, VoteAssignmentError

__all__ = ["Link", "Topology"]


@dataclass(frozen=True, order=True)
class Link:
    """An undirected link between two distinct sites.

    Endpoints are normalized so ``a < b``; two ``Link`` objects compare equal
    iff they join the same pair of sites regardless of construction order.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-loop link at site {self.a} is not allowed")
        if self.a > self.b:
            # Normalize endpoint order; dataclass is frozen so go through
            # object.__setattr__.
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    def endpoints(self) -> Tuple[int, int]:
        """Return the normalized ``(a, b)`` endpoint pair."""
        return (self.a, self.b)

    def other(self, site: int) -> int:
        """Return the endpoint opposite ``site``."""
        if site == self.a:
            return self.b
        if site == self.b:
            return self.a
        raise TopologyError(f"site {site} is not an endpoint of {self}")


class Topology:
    """A network of ``n_sites`` sites joined by undirected links.

    Parameters
    ----------
    n_sites:
        Number of sites, labelled ``0 .. n_sites-1``. Each site holds one
        copy of the replicated data item (the paper's evaluation places a
        copy at every site; partial replication is expressed by giving a
        site zero votes).
    links:
        Iterable of ``(a, b)`` pairs or :class:`Link` objects. Duplicates
        (in either orientation) are rejected — the paper's model has at most
        one link per site pair.
    votes:
        Optional per-site vote assignment. Defaults to one vote per site
        (the paper's uniform assignment). Votes must be non-negative
        integers; total votes ``T`` must be positive.
    name:
        Optional human-readable name used in reports.
    """

    __slots__ = (
        "_n_sites", "_links", "_votes", "_name", "_adjacency", "_link_index",
        "_endpoint_arrays", "_run_layout",
    )

    def __init__(
        self,
        n_sites: int,
        links: Iterable[Tuple[int, int] | Link],
        votes: Optional[Sequence[int]] = None,
        name: str = "",
    ) -> None:
        if n_sites <= 0:
            raise TopologyError(f"need at least one site, got n_sites={n_sites}")
        self._n_sites = int(n_sites)

        normalized: list[Link] = []
        seen: set[Tuple[int, int]] = set()
        for raw in links:
            link = raw if isinstance(raw, Link) else Link(int(raw[0]), int(raw[1]))
            for endpoint in link.endpoints():
                if not (0 <= endpoint < self._n_sites):
                    raise TopologyError(
                        f"link {link} references site {endpoint}, outside 0..{self._n_sites - 1}"
                    )
            key = link.endpoints()
            if key in seen:
                raise TopologyError(f"duplicate link {link}")
            seen.add(key)
            normalized.append(link)
        normalized.sort()
        self._links: Tuple[Link, ...] = tuple(normalized)

        if votes is None:
            votes_arr = np.ones(self._n_sites, dtype=np.int64)
        else:
            votes_arr = np.asarray(list(votes), dtype=np.int64)
            if votes_arr.shape != (self._n_sites,):
                raise VoteAssignmentError(
                    f"votes must have length {self._n_sites}, got shape {votes_arr.shape}"
                )
            if (votes_arr < 0).any():
                raise VoteAssignmentError("votes must be non-negative")
            if votes_arr.sum() <= 0:
                raise VoteAssignmentError("total votes T must be positive")
        votes_arr.setflags(write=False)
        self._votes = votes_arr
        self._name = name or f"topology(n={self._n_sites}, m={len(self._links)})"

        adjacency: Dict[int, list[int]] = {i: [] for i in range(self._n_sites)}
        link_index: Dict[Tuple[int, int], int] = {}
        for idx, link in enumerate(self._links):
            adjacency[link.a].append(link.b)
            adjacency[link.b].append(link.a)
            link_index[link.endpoints()] = idx
        self._adjacency = {site: tuple(sorted(nbrs)) for site, nbrs in adjacency.items()}
        self._link_index = link_index

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_sites(self) -> int:
        """Number of sites in the network."""
        return self._n_sites

    @property
    def n_links(self) -> int:
        """Number of undirected links."""
        return len(self._links)

    @property
    def links(self) -> Tuple[Link, ...]:
        """Links in sorted order; the index of a link here is its link id."""
        return self._links

    @property
    def votes(self) -> np.ndarray:
        """Read-only int64 array of per-site votes."""
        return self._votes

    @property
    def total_votes(self) -> int:
        """``T``, the total number of votes in the system."""
        return int(self._votes.sum())

    @property
    def name(self) -> str:
        return self._name

    def sites(self) -> range:
        """Iterate site ids ``0 .. n_sites-1``."""
        return range(self._n_sites)

    def neighbors(self, site: int) -> Tuple[int, ...]:
        """Sites sharing a link with ``site``, ascending."""
        try:
            return self._adjacency[site]
        except KeyError:
            raise TopologyError(f"unknown site {site}") from None

    def degree(self, site: int) -> int:
        """Number of links incident to ``site``."""
        return len(self.neighbors(site))

    def link_id(self, a: int, b: int) -> int:
        """Return the index of the link joining ``a`` and ``b``.

        Link ids index :attr:`links` and are how the simulator refers to
        links in its failure processes.
        """
        key = (a, b) if a < b else (b, a)
        try:
            return self._link_index[key]
        except KeyError:
            raise TopologyError(f"no link between sites {a} and {b}") from None

    def link_endpoint_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays ``(u, v)`` with ``u[i] < v[i]`` for link id ``i``.

        These feed directly into the connectivity backends; the arrays
        are built once per topology and cached (read-only) because the
        simulator calls this on every failure/repair event.
        """
        cached = getattr(self, "_endpoint_arrays", None)
        if cached is not None:
            return cached
        if not self._links:
            u = np.empty(0, dtype=np.int64)
            v = np.empty(0, dtype=np.int64)
        else:
            u = np.fromiter((l.a for l in self._links), dtype=np.int64,
                            count=len(self._links))
            v = np.fromiter((l.b for l in self._links), dtype=np.int64,
                            count=len(self._links))
        # The block-diagonal labeller writes usable links straight into
        # CSR rows, which is only right while link ids ascend by (u, v).
        if (np.diff(u * self._n_sites + v) <= 0).any():
            raise TopologyError(f"{self._name}: links are not sorted by endpoints")
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "_endpoint_arrays", (u, v))
        return u, v

    # ------------------------------------------------------------------
    # Derived topologies
    # ------------------------------------------------------------------
    def with_votes(self, votes: Sequence[int]) -> "Topology":
        """Return a copy of this topology with a different vote assignment."""
        return Topology(self._n_sites, self._links, votes=votes, name=self._name)

    def with_name(self, name: str) -> "Topology":
        """Return a copy of this topology with a different display name."""
        return Topology(self._n_sites, self._links, votes=self._votes, name=name)

    def add_links(self, new_links: Iterable[Tuple[int, int] | Link]) -> "Topology":
        """Return a topology with ``new_links`` added (duplicates rejected)."""
        return Topology(
            self._n_sites,
            list(self._links) + list(new_links),
            votes=self._votes,
            name=self._name,
        )

    # ------------------------------------------------------------------
    # Structure predicates (used by analytic formulas to check their
    # applicability and by tests)
    # ------------------------------------------------------------------
    def is_ring(self) -> bool:
        """True iff the topology is a simple cycle over all sites.

        A 2-site "ring" would need a duplicate link, so rings require at
        least 3 sites.
        """
        if self._n_sites < 3 or self.n_links != self._n_sites:
            return False
        return all(self.degree(s) == 2 for s in self.sites()) and self._is_connected()

    def is_fully_connected(self) -> bool:
        """True iff every pair of sites shares a link."""
        return self.n_links == self._n_sites * (self._n_sites - 1) // 2

    def _is_connected(self) -> bool:
        if self._n_sites == 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            site = stack.pop()
            for nbr in self.neighbors(site):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return len(seen) == self._n_sites

    def is_connected(self) -> bool:
        """True iff the topology is connected when everything is up."""
        return self._is_connected()

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self._n_sites == other._n_sites
            and self._links == other._links
            and bool(np.array_equal(self._votes, other._votes))
        )

    def __hash__(self) -> int:
        return hash((self._n_sites, self._links, self._votes.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Topology(n_sites={self._n_sites}, n_links={self.n_links}, "
            f"T={self.total_votes}, name={self._name!r})"
        )
