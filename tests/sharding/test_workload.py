"""Item-workload properties: normalization, skew, and stream determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.rng import spawn, stream_for
from repro.sharding import ItemWorkload

n_items_st = st.integers(min_value=1, max_value=50)
n_sites_st = st.integers(min_value=1, max_value=12)
exponents = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
alphas_st = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestZipf:
    @given(n_items_st, n_sites_st, exponents, alphas_st)
    @settings(max_examples=50, deadline=None)
    def test_weights_normalize(self, n_items, n_sites, exponent, alpha):
        wl = ItemWorkload.zipf(n_items, n_sites, alpha, exponent=exponent)
        assert wl.item_weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (wl.item_weights > 0).all()
        # Hot head: weights fall (weakly) with rank.
        assert (np.diff(wl.item_weights) <= 1e-15).all()

    @given(n_items_st, st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_head_share_monotone_in_exponent(self, n_items, e1, e2):
        lo, hi = sorted((e1, e2))
        flat = ItemWorkload.zipf(n_items, 3, 0.5, exponent=lo)
        skew = ItemWorkload.zipf(n_items, 3, 0.5, exponent=hi)
        # A larger exponent concentrates more mass on the head item.
        assert skew.item_weights[0] >= flat.item_weights[0] - 1e-12

    def test_negative_exponent_rejected(self):
        with pytest.raises(SimulationError, match="exponent"):
            ItemWorkload.zipf(4, 3, 0.5, exponent=-0.5)

    def test_zero_items_rejected(self):
        with pytest.raises(SimulationError, match="at least one item"):
            ItemWorkload.zipf(0, 3, 0.5)


class TestHotspot:
    def test_hot_items_carry_hot_fraction(self):
        wl = ItemWorkload.hotspot(10, 4, 0.5, hot_items=[0, 3], hot_fraction=0.8)
        assert wl.item_weights[[0, 3]].sum() == pytest.approx(0.8)
        assert wl.item_weights.sum() == pytest.approx(1.0)

    def test_bad_hot_fraction_rejected(self):
        with pytest.raises(SimulationError, match="hot_fraction"):
            ItemWorkload.hotspot(10, 4, 0.5, hot_items=[0], hot_fraction=1.0)

    def test_out_of_range_hot_item_rejected(self):
        with pytest.raises(SimulationError, match="outside"):
            ItemWorkload.hotspot(10, 4, 0.5, hot_items=[10])

    def test_all_hot_rejected(self):
        with pytest.raises(SimulationError, match="cold"):
            ItemWorkload.hotspot(2, 4, 0.5, hot_items=[0, 1])


class TestValidation:
    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(SimulationError, match="alpha"):
            ItemWorkload.uniform(3, 4, [0.2, 1.5, 0.4])

    def test_alpha_vector_length_checked(self):
        with pytest.raises(SimulationError, match="alphas"):
            ItemWorkload.uniform(3, 4, [0.2, 0.4])

    def test_mean_alpha_is_traffic_weighted(self):
        wl = ItemWorkload.hotspot(
            2, 3, [1.0, 0.0], hot_items=[0], hot_fraction=0.75
        )
        assert wl.mean_alpha == pytest.approx(0.75)


class TestSampling:
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=25, deadline=None)
    def test_deterministic_per_seed_and_batch(self, seed, batch_index):
        """The (seed, batch_index) substream fully determines the draws."""
        wl = ItemWorkload.zipf(5, 4, [0.1, 0.3, 0.5, 0.7, 0.9], exponent=1.0)
        draws = []
        for _ in range(2):
            _, access_rng, _ = spawn(stream_for(seed, batch_index), 3)
            draws.append(wl.sample_epoch(25.0, access_rng))
        assert np.array_equal(draws[0][0], draws[1][0])
        assert np.array_equal(draws[0][1], draws[1][1])

    def test_different_batches_differ(self):
        wl = ItemWorkload.uniform(4, 5, 0.5)
        _, rng_a, _ = spawn(stream_for(0, 0), 3)
        _, rng_b, _ = spawn(stream_for(0, 1), 3)
        a = wl.sample_epoch(50.0, rng_a)
        b = wl.sample_epoch(50.0, rng_b)
        assert not (np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))

    def test_zero_duration_consumes_one_poisson_draw_only(self):
        wl = ItemWorkload.uniform(3, 4, 0.5)
        rng = np.random.default_rng(3)
        reads, writes = wl.sample_epoch(0.0, rng)
        assert reads.sum() == 0 and writes.sum() == 0
        # The short-circuit must leave the stream where AccessWorkload
        # leaves it: exactly one Poisson draw consumed.
        sibling = np.random.default_rng(3)
        sibling.poisson(0.0)
        assert rng.bit_generator.state == sibling.bit_generator.state

    def test_negative_duration_rejected(self):
        wl = ItemWorkload.uniform(3, 4, 0.5)
        with pytest.raises(SimulationError, match="duration"):
            wl.sample_epoch(-1.0, np.random.default_rng(0))

    def test_joint_weights_are_built_once_and_read_only(self):
        wl = ItemWorkload.zipf(4, 3, [0.2, 0.4, 0.6, 0.8], exponent=1.0)
        mean_alpha, read_p, write_p = wl._joint_weights
        assert wl._joint_weights[1] is read_p and wl._joint_weights[2] is write_p
        assert not read_p.flags.writeable and not write_p.flags.writeable
        assert mean_alpha == wl.mean_alpha
        # A derived workload builds its own.
        assert wl.with_alphas(0.5)._joint_weights[1] is not read_p
        reads, writes = wl.sample_epoch(40.0, np.random.default_rng(1))
        assert reads.dtype == writes.dtype == np.int64
        assert reads.shape == writes.shape == (4, 3)
