"""Hypothesis stateful machine for the multi-item database.

Invariants driven under arbitrary failures, repairs, and transactions:

- atomicity: a denied transaction changes nothing; a committed one
  applies every write;
- per-item one-copy serializability: a committed read returns the last
  committed write of that item (tracked shadow state);
- isolation of items: writing one item never moves another item's
  timestamps;
- one network: every item's tracker labels the same components.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.replication.item import ReplicatedItem
from repro.replication.multidb import ItemBinding, MultiItemDatabase
from repro.topology.generators import ring_with_chords

N_SITES = 5
TOPOLOGY = ring_with_chords(N_SITES, 1)
N_LINKS = TOPOLOGY.n_links
ITEMS = ("alpha", "beta")

sites = st.integers(0, N_SITES - 1)
links = st.integers(0, N_LINKS - 1)
item_ids = st.sampled_from(ITEMS)


def qc(T, q_r):
    return QuorumConsensusProtocol(QuorumAssignment.from_read_quorum(T, q_r))


class MultiDbMachine(RuleBasedStateMachine):
    @initialize(qa=st.integers(1, N_SITES // 2), qb=st.integers(1, N_SITES // 2))
    def setup(self, qa, qb):
        self.db = MultiItemDatabase(
            TOPOLOGY,
            [
                ItemBinding(ReplicatedItem.fully_replicated("alpha", TOPOLOGY),
                            qc(N_SITES, qa), 0),
                ItemBinding(ReplicatedItem.fully_replicated("beta", TOPOLOGY),
                            qc(N_SITES, qb), 0),
            ],
        )
        self.committed = {"alpha": 0, "beta": 0}
        self.commit_count = {"alpha": 0, "beta": 0}
        self.next_value = 1

    # ------------------------------------------------------------------
    @rule(site=sites)
    def flip_site(self, site):
        if self.db.state.site_up[site]:
            self.db.fail_site(site)
        else:
            self.db.repair_site(site)

    @rule(link=links)
    def flip_link(self, link):
        pair = TOPOLOGY.links[link].endpoints()
        if self.db.state.link_up[link]:
            self.db.fail_link(*pair)
        else:
            self.db.repair_link(*pair)

    @rule(item=item_ids, site=sites)
    def single_read(self, item, site):
        result = self.db.read(item, site)
        if result.granted:
            assert result.value == self.committed[item]

    @rule(item=item_ids, site=sites)
    def single_write(self, item, site):
        value = self.next_value
        self.next_value += 1
        result = self.db.write(item, site, value)
        if result.granted:
            self.committed[item] = value
            self.commit_count[item] += 1

    @rule(site=sites, read_item=item_ids, write_item=item_ids)
    def multi_transaction(self, site, read_item, write_item):
        if read_item == write_item:
            return
        value = self.next_value
        self.next_value += 1
        result = self.db.transaction(
            site, reads=[read_item], writes={write_item: value}
        )
        if result.committed:
            assert result.reads[read_item].value == self.committed[read_item]
            self.committed[write_item] = value
            self.commit_count[write_item] += 1
        # On denial nothing changed; the invariants below verify that.

    # ------------------------------------------------------------------
    @invariant()
    def newest_copy_matches_shadow(self):
        """The max-timestamp copy of each item holds the last committed
        value, and its timestamp equals the number of commits."""
        for item in ITEMS:
            newest = max(
                (self.db.copy_at(item, s) for s in range(N_SITES)),
                key=lambda c: c.timestamp,
            )
            assert newest.timestamp == self.commit_count[item]
            assert newest.value == self.committed[item] or self.commit_count[item] == 0

    @invariant()
    def items_see_one_network(self):
        first, *rest = (self.db.tracker_for(item).labels for item in ITEMS)
        for labels in rest:
            assert (labels == first).all()

    @invariant()
    def copies_never_exceed_commit_count(self):
        for item in ITEMS:
            for s in range(N_SITES):
                assert self.db.copy_at(item, s).timestamp <= self.commit_count[item]


TestMultiDbMachine = MultiDbMachine.TestCase
TestMultiDbMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
