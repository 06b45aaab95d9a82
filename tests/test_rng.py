"""Tests for the random-stream substrate."""

import numpy as np
import pytest

from repro.rng import as_generator, spawn, stream_for


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
