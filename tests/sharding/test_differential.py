"""Differential battery: the vectorized engine vs the per-item reference.

The sharded engine's contract is *bitwise* equality with the retained
per-item loop (one tracker and one protocol per item) — same counters, same survivability times,
same density tables — for every topology family, every item count, and
every way the items fall into ``(votes row, q_r)`` quorum classes. These
tests sweep that grid; ``repro verify`` runs the registered
``sharded|per-item-reference`` pair on the quick profile.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sharding.engine as engine_module
from repro.sharding import ItemWorkload, ShardConfig, ShardedEngine, run_sharded
from repro.topology.generators import bus, fully_connected, ring

FAMILIES = {
    "ring": lambda: ring(7),
    "complete": lambda: fully_connected(5),
    "bus": lambda: bus(7),
}


def _config(topology, n_items, seed=11, **overrides):
    alphas = np.linspace(0.15, 0.9, n_items)
    workload = ItemWorkload.zipf(
        n_items, topology.n_sites, alphas, exponent=1.0
    )
    fields = dict(
        topology=topology,
        workload=workload,
        mean_time_to_failure=30.0,
        mean_time_to_repair=5.0,
        warmup_accesses=100.0,
        accesses_per_batch=1_500.0,
        n_batches=2,
        seed=seed,
    )
    fields.update(overrides)
    return ShardConfig(**fields)


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n_items", [1, 3])
    def test_small_item_counts(self, family, n_items):
        config = _config(FAMILIES[family](), n_items)
        vec = run_sharded(config, engine="vectorized")
        ref = run_sharded(config, engine="reference")
        assert vec.bitwise_equal(ref)

    @pytest.mark.slow
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_sixty_four_items(self, family):
        config = _config(FAMILIES[family](), 64,
                         accesses_per_batch=800.0, n_batches=2)
        vec = run_sharded(config, engine="vectorized")
        ref = run_sharded(config, engine="reference")
        assert vec.bitwise_equal(ref)

    def test_heterogeneous_votes_and_quorums(self):
        topology = ring(6)
        n_items = 4
        rng = np.random.default_rng(5)
        votes = rng.integers(0, 3, size=(n_items, 6))
        votes[:, 0] = np.maximum(votes[:, 0], 1)  # positive row totals
        totals = votes.sum(axis=1)
        quorums = np.maximum(totals // 2, 1)
        config = _config(topology, n_items, votes=votes, read_quorums=quorums)
        vec = run_sharded(config, engine="vectorized")
        ref = run_sharded(config, engine="reference")
        assert vec.bitwise_equal(ref)

    def test_density_tables_account_all_measured_time(self):
        config = _config(ring(7), 3)
        result = run_sharded(config, engine="vectorized")
        # Each epoch adds duration once per (item, site) cell, so every
        # item's histogram row sums to n_sites * measured_time.
        row_sums = result.density_time().sum(axis=1)
        expected = config.topology.n_sites * result.measured_time
        assert row_sums == pytest.approx(
            np.full(config.n_items, expected), rel=1e-9
        )


#: Vote rows over ``ring(6)``; C has sites that hold no copy.
ROW_A = [1, 1, 1, 1, 1, 1]
ROW_B = [2, 1, 0, 1, 2, 1]
ROW_C = [0, 3, 0, 0, 1, 1]

#: name -> (vote rows, read quorums, expected number of classes); the
#: per-item oracle takes the paper's range ``q_r <= T // 2`` only.
CLASS_STRUCTURES = {
    "one-class": ([ROW_A] * 5, [3] * 5, 1),
    "all-distinct": (
        [ROW_A, ROW_B, ROW_C, [1, 2, 3, 1, 2, 3], [1, 0, 0, 0, 0, 1]],
        [3, 3, 2, 6, 1], 5,
    ),
    "same-rows-different-quorums": ([ROW_B] * 4, [1, 3, 3, 2], 3),
    "zero-vote-sites": ([ROW_C, ROW_C, [0, 0, 0, 0, 0, 2]], [2, 2, 1], 2),
    "interleaved": (
        [ROW_A, ROW_B, ROW_A, ROW_C, ROW_B, ROW_A, ROW_C],
        [3, 3, 3, 2, 3, 3, 2], 3,
    ),
}


def _structured(name, **overrides):
    rows, quorums, n_classes = CLASS_STRUCTURES[name]
    config = _config(ring(6), len(rows), votes=np.array(rows),
                     read_quorums=np.array(quorums), **overrides)
    return config, n_classes


class TestClassStructures:
    """The class accountant against the per-item oracle, structure by structure."""

    @pytest.mark.parametrize("name", sorted(CLASS_STRUCTURES))
    def test_bitwise_equal_to_reference(self, name):
        config, n_classes = _structured(name)
        vec = run_sharded(config, engine="vectorized")
        assert vec.n_classes == ShardedEngine(config).n_classes == n_classes
        assert vec.bitwise_equal(run_sharded(config, engine="reference"))
        # Not vacuous: SURV and ACC both moved, and items of different
        # classes were told apart.
        assert 0 < vec.surv_write.min() and vec.surv_write.max() < 1
        assert 0 < vec.availability < 1
        told_apart = np.column_stack(
            (vec.density_time(), vec.surv_read, vec.surv_write))
        assert len({row.tobytes() for row in told_apart}) == n_classes

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_worker_count_never_changes_bits(self, n_workers):
        config, _ = _structured("interleaved")
        fanned = run_sharded(config, engine="vectorized", n_workers=n_workers)
        assert fanned.bitwise_equal(run_sharded(config, engine="reference"))

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_internal_block_never_changes_bits(self, monkeypatch, block):
        config, _ = _structured("all-distinct")
        base = run_sharded(config, engine="vectorized")
        monkeypatch.setattr(engine_module, "_CLASS_BLOCK", block)
        assert run_sharded(config, engine="vectorized").bitwise_equal(base)

    def test_more_distinct_items_than_the_internal_block(self):
        n_items = engine_module._CLASS_BLOCK + 50
        rng = np.random.default_rng(23)
        votes = rng.integers(0, 6, size=(n_items, 6))
        votes[:, 0] += 2
        quorums = rng.integers(1, votes.sum(axis=1) // 2 + 1)
        config = _config(ring(6), n_items, votes=votes, read_quorums=quorums,
                         accesses_per_batch=150.0, warmup_accesses=0.0,
                         n_batches=1)
        vec = run_sharded(config, engine="vectorized")
        assert vec.n_classes > engine_module._CLASS_BLOCK
        assert vec.bitwise_equal(run_sharded(config, engine="reference"))

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_matrices_with_forced_duplicates(self, data):
        n_sites = 5
        row = st.lists(st.integers(0, 3), min_size=n_sites, max_size=n_sites).filter(
            lambda votes: sum(votes) >= 2)
        rows = data.draw(st.lists(row, min_size=1, max_size=4), label="class rows")
        quorums = [data.draw(st.integers(1, sum(r) // 2), label="q_r") for r in rows]
        # Every class appears at least twice, in any order.
        members = data.draw(
            st.permutations(list(range(len(rows))) * 2), label="class of item")
        config = _config(
            ring(n_sites), len(members),
            votes=np.array([rows[c] for c in members]),
            read_quorums=np.array([quorums[c] for c in members]),
            seed=data.draw(st.integers(0, 50), label="seed"),
            accesses_per_batch=300.0, n_batches=1,
        )
        vec = run_sharded(config, engine="vectorized")
        assert vec.n_classes <= len(rows)
        assert vec.bitwise_equal(run_sharded(config, engine="reference"))


class TestEpochCostIsPerClass:
    """Counted, not timed: what ``np.bincount`` is handed per epoch depends
    on the classes and the sites, never on how many items share a class."""

    @staticmethod
    def bincount_elements(monkeypatch, n_items):
        rows, quorums, _ = CLASS_STRUCTURES["interleaved"]
        config = _config(
            ring(6), n_items, votes=np.resize(np.array(rows), (n_items, 6)),
            read_quorums=np.resize(np.array(quorums), n_items), n_batches=1,
        )
        seen = []
        real = np.bincount

        def spy(x, *args, **kwargs):
            seen.append(np.size(x))
            return real(x, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "bincount", spy)
            result = run_sharded(config, engine="vectorized")
        assert result.n_classes == 3
        return sum(seen), result.batches[0].n_epochs

    def test_tiling_the_classes_leaves_the_bincount_volume_unchanged(self, monkeypatch):
        small, epochs = self.bincount_elements(monkeypatch, 1_000)
        large, epochs_large = self.bincount_elements(monkeypatch, 10_000)
        assert epochs == epochs_large > 20
        assert small == large
        # 3 classes x (up sites + all sites) per epoch, and the tracker's
        # one full relabel: a per-item engine reads ~1 000x this.
        assert small <= epochs * 3 * 12 + 6


class TestSingleItemParity:
    """An N=1 sharded run is bitwise the single-item simulation."""

    @pytest.mark.parametrize("family,read_quorum,alpha", [
        ("ring", 2, 0.6),
        ("complete", 2, 0.4),
        ("bus", 3, 0.35),
    ])
    def test_counters_match_single_item_engine(self, family, read_quorum, alpha):
        from repro.protocols.quorum_consensus import QuorumConsensusProtocol
        from repro.quorum.assignment import QuorumAssignment
        from repro.simulation.config import SimulationConfig
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.workload import AccessWorkload

        topology = FAMILIES[family]()
        sim = SimulationConfig(
            topology=topology,
            workload=AccessWorkload.uniform(topology.n_sites, alpha),
            mean_time_to_failure=30.0,
            mean_time_to_repair=5.0,
            warmup_accesses=100.0,
            accesses_per_batch=2_000.0,
            n_batches=2,
            initial_state="stationary",
            seed=5,
        )
        protocol = QuorumConsensusProtocol(
            QuorumAssignment.from_read_quorum(
                topology.total_votes, read_quorum
            )
        )
        single = SimulationEngine(sim, protocol)
        sharded_config = ShardConfig.from_simulation(
            sim,
            ItemWorkload.uniform(1, topology.n_sites, alpha),
            read_quorums=[read_quorum],
        )
        sharded = ShardedEngine(sharded_config)
        for batch_index in range(sim.n_batches):
            a = single.run_batch(batch_index)
            s = sharded.run_batch(batch_index)
            assert float(a.reads_submitted) == float(s.reads_submitted[0])
            assert float(a.reads_granted) == float(s.reads_granted[0])
            assert float(a.writes_submitted) == float(s.writes_submitted[0])
            assert float(a.writes_granted) == float(s.writes_granted[0])
            assert a.n_epochs == s.n_epochs
            assert a.n_events == s.n_events
            assert a.measured_time == s.measured_time
            assert a.surv_read == s.surv_read_time[0] / s.measured_time
            assert a.surv_write == s.surv_write_time[0] / s.measured_time
