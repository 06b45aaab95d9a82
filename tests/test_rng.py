"""Tests for the random-stream substrate."""

import pickle

import numpy as np
import pytest

from repro.rng import Substreams, as_generator, spawn, stream_for


class TestAsGenerator:
    def test_int_seed_deterministic(self):
        assert as_generator(7).random() == as_generator(7).random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(5)
        a = as_generator(seq).random()
        b = as_generator(np.random.SeedSequence(5)).random()
        assert a == b


class TestSpawn:
    def test_children_independent_and_deterministic(self):
        a1, b1 = spawn(3, 2)
        a2, b2 = spawn(3, 2)
        assert a1.random() == a2.random()
        assert b1.random() == b2.random()
        assert a1.random() != b1.random()

    def test_spawn_from_generator_reproducible_from_parent(self):
        children1 = spawn(np.random.default_rng(9), 3)
        children2 = spawn(np.random.default_rng(9), 3)
        for c1, c2 in zip(children1, children2):
            assert c1.random() == c2.random()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn(0, -1)


class TestSubstreams:
    """The lazy children are the streams ``spawn`` makes, in order."""

    SEEDS = {
        "int": lambda: 11,
        "big-int": lambda: 2**70 + 3,
        "seed-sequence": lambda: np.random.SeedSequence(5, spawn_key=(2,)),
        "generator": lambda: np.random.default_rng(9),
    }

    @pytest.mark.parametrize("kind", sorted(SEEDS))
    def test_each_child_is_spawns_child(self, kind):
        eager = spawn(self.SEEDS[kind](), 4)
        lazy = Substreams(self.SEEDS[kind](), 4)
        assert len(lazy) == 4
        for i in (3, 0, 2, 1):  # any order: a child depends on its index only
            assert lazy[i].random(3).tobytes() == eager[i].random(3).tobytes()

    @pytest.mark.parametrize("kind", sorted(SEEDS))
    def test_it_leaves_a_parent_where_spawn_does(self, kind):
        parents = [self.SEEDS[kind]() for _ in range(2)]
        spawn(parents[0], 4)
        Substreams(parents[1], 4)
        again = [spawn(parent, 1)[0].random(2).tobytes() for parent in parents]
        assert again[0] == again[1]

    def test_it_pickles_for_workers(self):
        lazy = Substreams(11, 3)
        clone = pickle.loads(pickle.dumps(lazy))
        assert clone[2].random(2).tobytes() == lazy[2].random(2).tobytes()

    def test_an_index_outside_raises(self):
        with pytest.raises(IndexError):
            Substreams(11, 3)[3]
        with pytest.raises(ValueError):
            Substreams(11, -1)


class TestStreamFor:
    def test_coordinate_determinism(self):
        assert stream_for(5, 2).random() == stream_for(5, 2).random()

    def test_coordinates_independent_of_order(self):
        """Batch k's stream must not depend on other batches existing."""
        direct = stream_for(5, 7).random()
        _ = stream_for(5, 0), stream_for(5, 3)
        assert stream_for(5, 7).random() == direct

    def test_distinct_coordinates_distinct_streams(self):
        values = {stream_for(1, k).random() for k in range(20)}
        assert len(values) == 20

    def test_multi_index(self):
        assert stream_for(2, 1, 4).random() == stream_for(2, 1, 4).random()
        assert stream_for(2, 1, 4).random() != stream_for(2, 4, 1).random()

    def test_rejects_generator_input(self):
        with pytest.raises(TypeError):
            stream_for(np.random.default_rng(0), 1)
