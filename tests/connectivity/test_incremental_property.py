"""Property tests: incremental ComponentTracker vs an independent labeller.

The incremental path (DESIGN.md §8) applies one site/link flip at a time
— merge on recovery, bounded reachability search on failure — and a
wider gap takes the full recompute, the flood behind ``component_labels``.
These tests drive ComponentTracker through arbitrary random fail/repair
sequences on ring, complete, irregular and the paper's dense 101-site
topologies and require exact agreement, at every step, with
``minlabel_component_labels`` (``tests/oracles.py``), which shares no code
with the flood.

The tracker floods bitmasks it packs from the state's boolean masks, so
the topologies also sit on both sides of that packing's byte and word
boundaries (1, 8, 16, 64, 65 sites), and every sequence runs under a
drawn vote vector. The tracker's own audit (``audit_interval=1``, checked
against the block labeller) walks the paper's complete graph and a
chorded 101-site ring.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.connectivity.components import component_vote_totals
from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.topology.generators import (
    erdos_renyi,
    fully_connected,
    paper_topology,
    ring,
    ring_with_chords,
    star,
)
from repro.topology.model import Topology
from tests.oracles import minlabel_component_labels

TOPOLOGIES = {
    "ring": lambda: ring(9),
    "complete": lambda: fully_connected(7),
    "irregular": lambda: erdos_renyi(10, 0.35, seed=5, ensure_connected=True),
    "paper-256": lambda: paper_topology(256, n_sites=101),
    "complete-40": lambda: fully_connected(40),
    # Either side of the byte boundaries of the tracker's mask packing.
    "single": lambda: Topology(1, []),
    "ring-8": lambda: ring(8),
    "ring-16": lambda: ring(16),
    "complete-64": lambda: fully_connected(64),
    "ring-65": lambda: ring(65),
    # A hub failure is one search with many targets: on the star it
    # splits into n-1 pieces, on the wheel (star + rim) into none.
    "star": lambda: star(9),
    "wheel": lambda: star(9).add_links([(i, i % 8 + 1) for i in range(1, 9)]),
}


def _naive_masks(state: NetworkState):
    """The live graph as bitmasks, one link at a time (mask-build oracle)."""
    adj = [0] * state.topology.n_sites
    for link, up in zip(state.topology.links, state.link_up):
        if up:
            adj[link.a] |= 1 << link.b
            adj[link.b] |= 1 << link.a
    return adj, sum(1 << site for site in np.nonzero(state.site_up)[0].tolist())


def _assert_matches_oracle(tracker: ComponentTracker, state: NetworkState) -> None:
    """Labels must match the oracle's up to a component bijection."""
    expected = minlabel_component_labels(state.topology, state.site_up, state.link_up)
    actual = tracker.labels
    assert actual.shape == expected.shape
    # Down sites agree exactly (-1); up sites agree up to renaming.
    down = expected < 0
    assert (actual[down] == -1).all()
    mapping = {}
    for mine, theirs in zip(actual[~down], expected[~down]):
        assert mapping.setdefault(mine, theirs) == theirs
    assert len(set(mapping.values())) == len(mapping)
    # Labels stay consecutive 0..k-1 — protocol consumers iterate
    # range(max+1) and crash on gaps.
    up_labels = actual[~down]
    if up_labels.size:
        assert sorted(set(up_labels)) == list(range(up_labels.max() + 1))
    expected_votes = component_vote_totals(expected, tracker.votes)
    assert np.array_equal(tracker.vote_totals, expected_votes)
    assert (tracker._adj, tracker._up) == _naive_masks(state)


@st.composite
def event_sequences(draw):
    topo_name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topology = TOPOLOGIES[topo_name]()
    n_events = draw(st.integers(1, 60))
    events = [
        (
            draw(st.sampled_from(["site", "link"])),
            draw(st.integers(0, 10_000)),
            draw(st.booleans()),
        )
        for _ in range(n_events)
    ]
    n = topology.n_sites
    votes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                 .filter(lambda drawn: sum(drawn) > 0))
    return topology, events, votes


def _apply(state, topology, event):
    kind, raw_index, up = event
    if kind == "site" or not topology.n_links:
        state.set_site(raw_index % topology.n_sites, up)
    else:
        state.set_link(raw_index % topology.n_links, up)


@settings(max_examples=60, deadline=None)
@given(event_sequences())
def test_incremental_tracker_matches_full_relabel(case):
    topology, events, votes = case
    state = NetworkState(topology)
    tracker = ComponentTracker(state, votes=votes)
    tracker.labels  # prime the cache so subsequent refreshes are incremental
    for event in events:
        _apply(state, topology, event)
        _assert_matches_oracle(tracker, state)
    assert tracker.n_incremental > 0 or len(events) == 0


@settings(max_examples=60, deadline=None)
@given(event_sequences(), st.integers(2, 4))
# A failure search reads the state's *current* masks, so replaying several
# flips in one refresh is wrong: with site 1 and link (1,2) both down, the
# site's replay never sees neighbour 2 and leaves it joined to site 0 ...
@example(
    case=(Topology(3, [(0, 1), (1, 2)]),
          [("site", 1, False), ("link", 1, False)], [1, 1, 1]),
    stride=2,
)
# ... and with all three links of a path down, carving {1} off first leaves
# 0, 2 and 3 sharing a label that only one later replay gets to split.
@example(
    case=(Topology(4, [(0, 1), (1, 2), (2, 3)]),
          [("link", 1, False), ("link", 0, False), ("link", 2, False)],
          [1, 1, 1, 1]),
    stride=3,
)
def test_incremental_tracker_matches_oracle_with_deferred_refresh(case, stride):
    """Several flips between two reads stay correct: they take the full relabel.

    The one-event-per-refresh test above only ever exercises the
    incremental path; here every refresh but possibly the last is more
    than one flip behind the state, which the tracker must notice.
    """
    topology, events, votes = case
    state = NetworkState(topology)
    tracker = ComponentTracker(state, votes=votes)
    tracker.labels
    refreshes = wide = 0
    for start in range(0, len(events), stride):
        chunk = events[start:start + stride]
        for event in chunk:
            _apply(state, topology, event)
        _assert_matches_oracle(tracker, state)
        refreshes += 1
        wide += len(chunk) >= 2
    # Every refresh is counted once (+1: the priming read), and every gap
    # of two or more flips is a full relabel.
    assert tracker.n_incremental + tracker.n_full == refreshes + 1
    assert tracker.n_full == wide + 1


@settings(max_examples=60, deadline=None)
@given(event_sequences(), st.data())
def test_incremental_and_full_refreshes_interleave(case, data):
    """Reads at arbitrary points: single-flip and wider gaps, mixed.

    The two tests above keep to one kind of refresh each; what a full
    recompute must leave behind for the *next* incremental refresh (the
    bitmasks rebuilt, not the ones from before the gap) shows only when
    they alternate.
    """
    topology, events, votes = case
    state = NetworkState(topology)
    tracker = ComponentTracker(state, votes=votes)
    tracker.labels
    reads = data.draw(st.lists(st.booleans(), min_size=len(events),
                               max_size=len(events)))
    for event, read in zip(events, reads):
        _apply(state, topology, event)
        if read:
            _assert_matches_oracle(tracker, state)
    _assert_matches_oracle(tracker, state)


def test_adjacent_recoveries_in_one_refresh_do_not_resurrect_down_sites():
    """Regression: two adjacent sites coming up inside a single refresh.

    While attaching the first, the state mask already shows the second as
    up but its tracker label is still -1; merging through that label
    matches every down site. Site 1 must stay down afterwards.
    """
    topology = ring(5)
    state = NetworkState(topology)
    tracker = ComponentTracker(state)
    tracker.labels
    for site in (1, 3, 4):
        state.set_site(site, False)
    _assert_matches_oracle(tracker, state)
    state.set_site(3, True)
    state.set_site(4, True)  # no tracker read in between: one refresh, 2 entries
    assert tracker.labels[1] == -1
    assert tracker.vote_totals[1] == 0
    _assert_matches_oracle(tracker, state)


@settings(max_examples=25, deadline=None)
@given(event_sequences())
def test_self_audit_never_fires_on_correct_tracker(case):
    """The built-in audit (oracle cross-check) stays silent on every step."""
    topology, events, votes = case
    state = NetworkState(topology)
    tracker = ComponentTracker(state, votes=votes, audit_interval=1)
    tracker.labels
    for event in events:
        _apply(state, topology, event)
        tracker.labels  # raises TopologyError if the audit finds divergence


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 10_000), st.booleans()), min_size=1,
             max_size=40),
    st.sampled_from(sorted(TOPOLOGIES)),
)
def test_burst_changes_fall_back_to_full_recompute(flips, topo_name):
    """Many flips between reads → one full recompute, still oracle-exact."""
    topology = TOPOLOGIES[topo_name]()
    state = NetworkState(topology)
    tracker = ComponentTracker(state)
    tracker.labels
    for raw_index, up in flips:
        state.set_site(raw_index % topology.n_sites, up)
    _assert_matches_oracle(tracker, state)


@pytest.mark.parametrize("topology, r", [
    # At r = .03 the complete graph's live links average three per site,
    # so its flips split and merge components.
    (fully_connected(101), 0.03),
    (ring_with_chords(101, 8), 0.9),
], ids=["complete-101", "ring-101-8-chords"])
def test_audited_walk_on_101_sites(topology, r):
    """Every refresh of a 300-flip walk is audited against the block labeller;
    every 25th read is two flips behind, so full recomputes are audited too."""
    n, n_links = topology.n_sites, topology.n_links
    rng = np.random.default_rng(101)
    state = NetworkState(topology, rng.random(n) < 0.9, rng.random(n_links) < r)
    tracker = ComponentTracker(state, audit_interval=1)
    tracker.labels
    for step in range(300):
        for _ in range(1 + (step % 25 == 24)):
            if rng.random() < 0.5:
                state.set_site(int(rng.integers(n)), bool(rng.random() < 0.9))
            else:
                state.set_link(int(rng.integers(n_links)), bool(rng.random() < r))
        tracker.labels  # raises TopologyError if the audit finds divergence
    assert tracker.n_incremental == 288 and tracker.n_full == 13
    _assert_matches_oracle(tracker, state)
