"""Mutable network state + incremental component tracking for the simulator.

The discrete-event simulator flips one site or link per failure/recovery
event and then needs, possibly many times before the next flip, the vector
of per-site component vote totals. :class:`ComponentTracker` caches that
vector and invalidates it on mutation, so component maintenance runs
exactly once per network change regardless of how many accesses land in
the interval.

The tracker keeps the live graph as one Python-int adjacency bitmask per
site plus a mask of the up sites (``components._live_masks``). A full
recompute builds them and floods them (``components._flood``, the
labeller behind :func:`~repro.connectivity.components.component_labels`).
After that, maintenance is *incremental* (DESIGN.md §8):
:class:`NetworkState` remembers its last flip, and when exactly that one
flip separates the tracker from the state the tracker XORs it into the
masks and applies it instead of relabelling the whole graph:

- a **recovery** event (site or link comes up) can only *merge*
  components — the tracker unions the affected components with a
  vectorized label rewrite, never touching the edge list;
- a **failure** event can only *split* the component containing the
  failed element — the tracker floods the masks from one side of the
  failure and stops the moment it meets the other side (still joined:
  nothing changes); only a flood that exhausts first carves the sites it
  reached off under a fresh id;
- anything else — several flips between reads, a tracker attached
  mid-run — takes the full recompute. ``audit_interval`` cross-checks the
  incremental state against the numpy union over the plain site graph
  (``components._union_runs``), which shares no code with the flood,
  every N incremental refreshes.

Labels stay on the documented contract (consecutive ids ``0..k-1`` over
up sites, ``-1`` for down sites) by construction: a split takes id ``k``,
and a merge refills the id it frees by moving the top id into it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.connectivity.components import (
    DOWN_LABEL,
    _compact_labels,
    _flood,
    _live_masks,
    _union_runs,
    component_vote_totals,
)
from repro.errors import TopologyError
from repro.topology.model import Topology

__all__ = ["NetworkState", "ComponentTracker", "NetworkChange"]


class NetworkChange(NamedTuple):
    """One mutation: the state version it produced and the flip."""

    version: int
    kind: str  # "site" | "link"
    index: int
    up: bool
    was_up: bool


class NetworkState:
    """Boolean up/down state for every site and link of a topology."""

    __slots__ = ("topology", "site_up", "link_up", "_version", "_last")

    def __init__(
        self,
        topology: Topology,
        site_up: Optional[np.ndarray] = None,
        link_up: Optional[np.ndarray] = None,
    ) -> None:
        self.topology = topology
        if site_up is None:
            self.site_up = np.ones(topology.n_sites, dtype=bool)
        else:
            self.site_up = np.array(site_up, dtype=bool)
            if self.site_up.shape != (topology.n_sites,):
                raise TopologyError(
                    f"site_up must have shape ({topology.n_sites},), got {self.site_up.shape}"
                )
        if link_up is None:
            self.link_up = np.ones(topology.n_links, dtype=bool)
        else:
            self.link_up = np.array(link_up, dtype=bool)
            if self.link_up.shape != (topology.n_links,):
                raise TopologyError(
                    f"link_up must have shape ({topology.n_links},), got {self.link_up.shape}"
                )
        #: Monotone counter bumped on every mutation; lets caches detect staleness.
        self._version = 0
        #: The mutation that produced the current version.
        self._last: Optional[NetworkChange] = None

    @property
    def version(self) -> int:
        return self._version

    def change_since(self, version: int) -> Optional[NetworkChange]:
        """The one flip separating ``version`` from the current state.

        ``None`` when the gap is anything but exactly one mutation (wider,
        zero, or ``version`` from the future) — a caller that is not
        already current must recompute from scratch.
        """
        last = self._last
        return last if last is not None and last.version - version == 1 else None

    def set_site(self, site: int, up: bool) -> None:
        """Set a site's state; no-op mutations still count as changes."""
        if not 0 <= site < self.topology.n_sites:
            raise TopologyError(f"unknown site {site}")
        was = bool(self.site_up[site])
        self.site_up[site] = up
        self._version += 1
        self._last = NetworkChange(self._version, "site", site, bool(up), was)

    def set_link(self, link_id: int, up: bool) -> None:
        """Set a link's state by link id."""
        if not 0 <= link_id < self.topology.n_links:
            raise TopologyError(f"unknown link id {link_id}")
        was = bool(self.link_up[link_id])
        self.link_up[link_id] = up
        self._version += 1
        self._last = NetworkChange(self._version, "link", link_id, bool(up), was)

    def fail_site(self, site: int) -> None:
        self.set_site(site, False)

    def repair_site(self, site: int) -> None:
        self.set_site(site, True)

    def fail_link(self, link_id: int) -> None:
        self.set_link(link_id, False)

    def repair_link(self, link_id: int) -> None:
        self.set_link(link_id, True)

    def all_up(self) -> bool:
        """True iff every site and every link is operational."""
        return bool(self.site_up.all() and self.link_up.all())

    def copy(self) -> "NetworkState":
        return NetworkState(self.topology, self.site_up, self.link_up)


class ComponentTracker:
    """Maintains component labels and vote totals for a :class:`NetworkState`.

    All getters refresh lazily when the underlying state's version has
    moved; between network changes they are O(1). A refresh that is
    exactly one flip behind applies it incrementally (merge on recovery,
    bounded flood on failure); any wider gap takes the full recompute,
    which builds the live graph's bitmasks and floods them. The masks then
    follow every flip with an XOR.

    Returned arrays are never mutated afterwards: a refresh copies them
    on its first real change, and one that changes nothing (a failure
    that split nothing, a repair inside one component, a no-op flip, a
    link flip at a down site) hands back the very same objects.

    ``votes`` overrides the topology's vote vector — several trackers
    with different vote vectors (one per replicated item) can share one
    network state, which is how the per-item reference shard engine
    gives each item its own quorum space over a single failure process.

    ``audit_interval`` (0 = off) cross-checks the incrementally
    maintained state against the union over the site graph (and the
    bitmasks against the state's masks) every N incremental refreshes,
    raising
    :class:`~repro.errors.TopologyError` on any divergence — the
    correctness oracle for tests and paranoid runs.
    """

    __slots__ = (
        "state", "votes", "total_votes", "_cached_version", "_labels",
        "_vote_totals", "_adj", "_up", "_n_components", "_shared",
        "audit_interval", "n_incremental", "n_full", "_audit_countdown",
        "_members",
    )

    def __init__(self, state: NetworkState,
                 votes: Optional[np.ndarray] = None,
                 audit_interval: int = 0) -> None:
        self.state = state
        if votes is None:
            self.votes = state.topology.votes
        else:
            votes = np.asarray(votes, dtype=np.int64)
            if votes.shape != (state.topology.n_sites,):
                raise TopologyError(
                    f"votes must have shape ({state.topology.n_sites},), "
                    f"got {votes.shape}"
                )
            self.votes = votes
        #: ``T``; ``votes`` is never reassigned, so it is summed once.
        self.total_votes = int(self.votes.sum())
        self._cached_version = -1
        self._labels: Optional[np.ndarray] = None
        self._vote_totals: Optional[np.ndarray] = None
        #: The live graph as bitmasks (``components._live_masks``), built by
        #: every full recompute.
        self._adj: List[int] = []
        self._up = 0
        #: ``k``: the ids ``0..k-1`` are exactly the labels in use.
        self._n_components = 0
        #: True while callers may hold ``_labels`` / ``_vote_totals``.
        self._shared = False
        #: ``component_of`` answers for one state version, by label.
        self._members: Tuple[int, Dict[int, np.ndarray]] = (-1, {})
        self.audit_interval = int(audit_interval)
        self._audit_countdown = self.audit_interval
        #: Maintenance statistics (observability + benchmarks).
        self.n_incremental = 0
        self.n_full = 0

    # ------------------------------------------------------------------
    # Refresh machinery
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        state = self.state
        if self._cached_version == state.version:
            return
        change = None if self._labels is None else state.change_since(self._cached_version)
        if change is None:
            self._full_recompute()
        else:
            self._shared = True
            self._apply_change(change)
            self.n_incremental += 1
            if self.audit_interval > 0:
                self._audit_countdown -= 1
                if self._audit_countdown <= 0:
                    self._audit_countdown = self.audit_interval
                    self._audit()
        self._cached_version = state.version

    def _full_recompute(self) -> None:
        state = self.state
        self._adj, self._up = _live_masks(state.topology, state.site_up, state.link_up)
        self._labels, self._n_components = _flood(self._adj, self._up)
        self._vote_totals = component_vote_totals(self._labels, self.votes)
        self.n_full += 1

    def _audit(self) -> None:
        """Assert the incremental state matches the union over the site
        graph (oracle), which the flood of a dense block does not share."""
        state = self.state
        u, v = state.topology.link_endpoint_arrays()
        usable = state.link_up & state.site_up[u] & state.site_up[v]
        oracle_labels = _compact_labels(
            *_union_runs(state.topology.n_sites, u[usable], v[usable]), state.site_up)
        oracle_totals = component_vote_totals(oracle_labels, self.votes)
        assert self._labels is not None and self._vote_totals is not None
        same_down = np.array_equal(self._labels < 0, oracle_labels < 0)
        # Partitions agree iff the label pairing is a bijection.
        up = oracle_labels >= 0
        pairs = np.unique(
            np.stack([self._labels[up], oracle_labels[up]]), axis=1
        ).shape[1] if up.any() else 0
        ours = np.unique(self._labels[up]).size if up.any() else 0
        theirs = np.unique(oracle_labels[up]).size if up.any() else 0
        adj, up_mask = _live_masks(state.topology, state.site_up, state.link_up)
        diverged = [name for name, same in (
            ("labels", same_down and pairs == ours == theirs),
            ("totals", np.array_equal(self._vote_totals, oracle_totals)),
            ("_up", self._up == up_mask),
            ("_adj", self._adj == adj),
        ) if not same]
        if diverged:
            raise TopologyError(
                f"incremental component state diverged in {', '.join(diverged)} "
                f"from the site-graph union and the state's masks (version "
                f"{state.version}): labels {self._labels.tolist()} "
                f"vs oracle {oracle_labels.tolist()}, totals "
                f"{self._vote_totals.tolist()} vs {oracle_totals.tolist()}"
            )

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    def _writable(self) -> Tuple[np.ndarray, np.ndarray]:
        """The label and total arrays, copied first if callers may hold them."""
        if self._shared:
            self._labels = self._labels.copy()
            self._vote_totals = self._vote_totals.copy()
            self._shared = False
        return self._labels, self._vote_totals

    def _apply_change(self, change: NetworkChange) -> None:
        if change.up == change.was_up:
            return  # no-op flip: version moved, structure did not
        if change.kind == "site":
            self._up ^= 1 << change.index
            if change.up:
                self._attach_site(change.index)
            else:
                self._detach_site(change.index)
            return
        link = self.state.topology.links[change.index]
        a, b = link.a, link.b
        # Before the return below: a link that flips under a down site
        # must be known when the site comes back.
        self._adj[a] ^= 1 << b
        self._adj[b] ^= 1 << a
        if not ((self._up >> a) & (self._up >> b) & 1):
            return  # a detached endpoint: the link carries no connectivity
        if change.up:
            self._merge(a, b)
        else:
            flood = self._search(a, 1 << b)
            if flood is not None:
                labels, totals = self._writable()
                old, whole = labels[a], int(totals[a])
                carved = self._carve(flood[1])
                totals[labels == old] = whole - carved

    def _merge(self, a: int, b: int) -> None:
        """Union the components of up sites ``a`` and ``b`` (``a``'s id survives)."""
        la, lb = int(self._labels[a]), int(self._labels[b])
        if la < 0 or lb < 0:
            # A detached endpoint must never reach here: ``labels == -1``
            # matches *every* down site, so the mask rewrite below would
            # resurrect all of them into one corrupt component. Callers
            # gate on the tracker's own ``_up`` to make this unreachable.
            raise TopologyError(
                f"cannot merge detached site (labels {la}, {lb} for sites {a}, {b})"
            )
        if la == lb:
            return
        labels, totals = self._writable()
        # Whole-array mask rewrites cost the same whichever side is
        # relabelled, so ``a``'s id simply survives.
        combined_votes = int(totals[a]) + int(totals[b])
        labels[labels == lb] = la
        totals[labels == la] = combined_votes
        self._release(lb)

    def _release(self, label: int) -> None:
        """Free a component id; the top id moves into the hole it leaves."""
        self._n_components -= 1
        top = self._n_components
        if label != top:
            labels = self._labels
            labels[labels == top] = label

    def _attach_site(self, site: int) -> None:
        """A site came up: start it as a singleton, then merge over links."""
        labels, totals = self._writable()
        labels[site] = self._n_components
        self._n_components += 1
        totals[site] = self.votes[site]
        live = self._adj[site] & self._up
        while live:
            low = live & -live
            live ^= low
            self._merge(site, low.bit_length() - 1)

    def _detach_site(self, site: int) -> None:
        """A site went down: drop it and resplit its old component.

        Every site of the old component reaches one of the failed site's
        neighbours without passing through it, so the component is still
        whole iff those neighbours can still reach each other.
        """
        labels, totals = self._writable()
        old = int(labels[site])
        remaining = int(totals[site]) - int(self.votes[site])
        labels[site] = DOWN_LABEL
        totals[site] = 0
        pending = self._adj[site] & self._up
        if not pending:
            self._release(old)  # the site was a component of its own
            return
        while pending & (pending - 1):  # two or more left to tell apart
            low = pending & -pending
            pending ^= low
            flood = self._search(low.bit_length() - 1, pending)
            if flood is None:
                break
            reached, sites = flood
            remaining -= self._carve(sites)
            pending &= ~reached
        totals[labels == old] = remaining

    def _search(self, start: int, targets: int) -> Optional[Tuple[int, List[int]]]:
        """Flood the live graph from ``start`` until every target bit is met.

        Returns ``None`` the moment the last of ``targets`` is reached
        (``start`` is still joined to all of them), else the exhausted
        flood — the whole component of ``start`` — as its bitmask and the
        list of its sites.
        """
        adj = self._adj
        frontier = 1 << start
        unseen = self._up ^ frontier
        expanded = []
        while frontier:
            low = frontier & -frontier
            site = low.bit_length() - 1
            new = adj[site] & unseen
            targets &= ~new
            if not targets:
                return None
            expanded.append(site)
            unseen ^= new
            frontier ^= low | new
        return self._up ^ unseen, expanded

    def _carve(self, sites: List[int]) -> int:
        """Split ``sites`` off their component under a fresh id; returns their votes."""
        labels, totals = self._writable()
        members = np.array(sites, dtype=np.intp)
        piece_votes = int(self.votes[members].sum())
        labels[members] = self._n_components
        self._n_components += 1
        totals[members] = piece_votes
        return piece_votes

    # ------------------------------------------------------------------
    # Getters
    # ------------------------------------------------------------------
    @property
    def labels(self) -> np.ndarray:
        """Component label per site (``-1`` for down sites)."""
        self._refresh()
        assert self._labels is not None
        return self._labels

    @property
    def vote_totals(self) -> np.ndarray:
        """Per-site votes of the containing component (0 for down sites)."""
        self._refresh()
        assert self._vote_totals is not None
        return self._vote_totals

    def votes_at(self, site: int) -> int:
        """Votes in the component containing ``site``."""
        return int(self.vote_totals[site])

    def component_of(self, site: int) -> np.ndarray:
        """Site ids of the component containing ``site`` (empty if down).

        Read-only: one array answers every call for that component until
        the state's version moves.
        """
        labels = self.labels
        label = int(labels[site])
        if label < 0:
            return np.empty(0, dtype=np.intp)
        version, by_label = self._members
        if version != self._cached_version:
            by_label = {}
            self._members = (self._cached_version, by_label)
        members = by_label.get(label)
        if members is None:
            members = by_label[label] = np.nonzero(labels == label)[0]
            members.flags.writeable = False
        return members
