"""The samplers stream: bounded memory, the same bytes (DESIGN.md §10).

A block of sampled states is drawn and labelled in row sub-blocks of at
most ``components.SLOT_BUDGET`` link slots, every count is summed as
soon as it exists, and each block's generator is made when the block
starts, so a sampler's working set depends on neither ``n_samples`` nor
the block's slot count. The vote search's common sample is drawn and
labelled in the same sub-blocks. Counts are integers below
2**53, so none of that regrouping may change a returned byte: the gates
below hold the bytes against a budget forced down to seven states, against
sha256 pins computed before the samplers streamed, and across worker
counts. Memory is read with ``tracemalloc`` (numpy reports its buffers to
it), not from the clock or RSS.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import repro.pool
from repro.analytic.montecarlo import montecarlo_density_matrix
from repro.analytic.variance import stratified_density_matrix
from repro.connectivity import components
from repro.connectivity.components import batched_vote_histogram
from repro.quorum.vote_optimizer import _StateSample
from repro.topology.generators import fully_connected, paper_topology

MiB = 2**20


def sha(matrix):
    return hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()


def traced_peak(fn):
    """Peak traced bytes of one call, after an untraced warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestStreamedMemory:
    def test_a_dense_block_is_labelled_within_the_slot_budget(self):
        # One 512-state call on the 101-site complete graph (5 050 links)
        # peaked at 32.5 MiB when a 256-state block was one csgraph call.
        topology = paper_topology(4949)
        peak = traced_peak(lambda: montecarlo_density_matrix(
            topology, 0.96, 0.96, n_samples=512, seed=1))
        assert peak <= 8 * MiB, f"{peak / MiB:.1f} MiB"

    def test_a_complete_graph_histogram_holds_one_sub_block_of_bits(self):
        # 256 states of the 101-site complete graph, labelled in 11
        # sub-blocks of 23-24 states. Traced 3.0 MiB as csgraph calls on
        # the site graph; 0.71 MiB flooded, of which one sub-block's
        # (24, 101, 128) bit matrix is 0.30 MiB.
        topology = paper_topology(4949)
        rng = np.random.default_rng(2)
        site_masks = rng.random((256, topology.n_sites)) < 0.96
        link_masks = rng.random((256, topology.n_links)) < 0.96
        peak = traced_peak(lambda: batched_vote_histogram(
            topology, site_masks, link_masks))
        assert peak <= MiB, f"{peak / MiB:.2f} MiB"

    def test_memory_does_not_grow_with_n_samples(self):
        # 7.2 -> 63.3 MiB when every block's count matrix was kept, and
        # 1.30 -> 1.92 MiB while every block's generator was spawned up
        # front; 0.64 -> 0.63 MiB with each made when its block starts.
        topology = paper_topology(16)
        small, large = (traced_peak(lambda: montecarlo_density_matrix(
            topology, 0.96, 0.96, n_samples=n, seed=1)) for n in (20_000, 200_000))
        assert large - small <= MiB / 8, f"{small / MiB:.2f} -> {large / MiB:.2f} MiB"

    def test_the_vote_search_labels_its_sample_within_the_slot_budget(self):
        # 33.1 MiB when the 200 states were drawn and labelled in one call.
        topology = paper_topology(4949)
        peak = traced_peak(lambda: _StateSample(topology, 0.96, 0.96,
                                                n_samples=200, seed=0))
        assert peak <= 6 * MiB, f"{peak / MiB:.1f} MiB"

    def test_stratified_draws_one_component_row_at_a_time(self):
        # 15.3 MiB with one (m, count) float64 block of uniforms per stratum.
        topology = paper_topology(16)
        peak = traced_peak(lambda: stratified_density_matrix(
            topology, 0.96, 0.96, n_samples=25_000, seed=1))
        assert peak <= 10 * MiB, f"{peak / MiB:.1f} MiB"


@pytest.fixture
def labelling_calls(monkeypatch):
    """The block labeller's calls (union or flood), as their chord slots."""
    calls = []
    real = components._label_runs

    def counted(topology, site_masks, link_masks):
        n_chords = components._run_layout(topology).chord_u.shape[0]
        calls.append(site_masks.shape[0] * n_chords)
        return real(topology, site_masks, link_masks)

    monkeypatch.setattr(components, "_label_runs", counted)
    return calls


TOPOLOGIES = [fully_connected(12), paper_topology(16)]


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
def test_a_seven_state_budget_changes_no_byte(topology, monkeypatch, labelling_calls):
    rng = np.random.default_rng(17)
    site_masks = rng.random((300, topology.n_sites)) < 0.9
    link_masks = rng.random((300, topology.n_links)) < 0.8

    def run():
        return (batched_vote_histogram(topology, site_masks, link_masks),
                montecarlo_density_matrix(topology, 0.9, 0.8, n_samples=1_000,
                                          seed=5, batch_size=256))

    whole = run()
    assert max(labelling_calls) > 7 * topology.n_links
    labelling_calls.clear()
    monkeypatch.setattr(components, "SLOT_BUDGET", 7 * topology.n_links)
    split = run()
    assert max(labelling_calls) <= 7 * topology.n_links
    for a, b in zip(whole, split):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
def test_a_seven_state_budget_changes_no_vote_sample_byte(topology, monkeypatch,
                                                          labelling_calls):
    votes = np.arange(topology.n_sites) % 3

    def run():
        sample = _StateSample(topology, 0.9, 0.8, n_samples=300, seed=5)
        return (sample.site_masks, sample.labels, sample.members, sample.weights,
                sample.vote_counts(votes), sample.move_uppers(votes))

    whole = run()
    assert len(labelling_calls) == 1
    labelling_calls.clear()
    monkeypatch.setattr(components, "SLOT_BUDGET", 7 * topology.n_links)
    split = run()
    assert len(labelling_calls) == 300 // 7 + 1
    for a, b in zip(whole, split):
        assert a.tobytes() == b.tobytes()


def test_sampler_bytes_are_pinned():
    """Computed before the samplers streamed: the same seed, the same bytes."""
    assert sha(montecarlo_density_matrix(
        paper_topology(4949), 0.96, 0.96, n_samples=1_000, seed=41)) == (
        "ea67befda119b5058c62eeadfb1d429783956c7cf270af851572189fb460f5cd")
    assert sha(stratified_density_matrix(
        paper_topology(16), 0.96, 0.96, n_samples=25_000, seed=41)) == (
        "fe71a790a2b8cb7132cca4d98a4ec465791646337532036c21a5e01e80531ecf")


@pytest.mark.slow
def test_workers_get_one_run_of_blocks_each_and_change_no_byte(monkeypatch):
    items_sent = []
    real = repro.pool.fan_out

    def wrapped(task, shared, items, n_workers):
        items = list(items)
        items_sent.append((len(items), n_workers))
        return real(task, shared, items, n_workers)

    monkeypatch.setattr(repro.pool, "fan_out", wrapped)
    topology = paper_topology(16, n_sites=21)
    matrices = [montecarlo_density_matrix(topology, 0.9, 0.85, n_samples=2_000,
                                          seed=11, batch_size=128, n_workers=w)
                for w in (1, 2, 3)]
    assert matrices[0].tobytes() == matrices[1].tobytes() == matrices[2].tobytes()
    assert items_sent == [(2, 2), (3, 3)]
