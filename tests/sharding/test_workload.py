"""Item-workload properties: normalization, skew, the sampler's law and streams."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.rng import spawn, stream_for
from repro.sharding import ItemWorkload
from tests.oracles import joint_multinomial_epoch

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

    def test_nan_alpha_rejected(self):
        # NaN compares false to both bounds; it used to pass here and die
        # inside the first epoch's binomial draw.
        with pytest.raises(SimulationError, match="alpha .* got nan"):
            ItemWorkload.uniform(3, 4, [0.2, float("nan"), 0.4])

    def test_alpha_vector_length_checked(self):
        with pytest.raises(SimulationError, match="alphas"):
            ItemWorkload.uniform(3, 4, [0.2, 0.4])

    def test_mean_alpha_is_traffic_weighted(self):
        wl = ItemWorkload.hotspot(
            2, 3, [1.0, 0.0], hot_items=[0], hot_fraction=0.75
        )
        assert wl.mean_alpha == pytest.approx(0.75)


def dense(accesses, wl):
    """The ``(n_items, n_sites)`` grid of one kind's ``(cells, counts)``."""
    cells, counts = accesses
    grid = np.zeros(wl.n_items * wl.n_sites, dtype=np.int64)
    grid[cells] = counts
    return grid.reshape(wl.n_items, wl.n_sites)


class TestSampling:
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=25, deadline=None)
    def test_deterministic_per_seed_and_batch(self, seed, batch_index):
        """The (seed, batch_index) substreams fully determine the draws."""
        wl = ItemWorkload.zipf(5, 4, [0.1, 0.3, 0.5, 0.7, 0.9], exponent=1.0)
        draws = []
        for _ in range(2):
            _, access_rng, item_rng = spawn(stream_for(seed, batch_index), 3)
            draws.append(wl.sample_epoch(25.0, access_rng, item_rng))
        for kind in range(2):
            for part in range(2):
                assert np.array_equal(draws[0][kind][part], draws[1][kind][part])

    def test_different_batches_differ(self):
        wl = ItemWorkload.uniform(4, 5, 0.5)
        _, rng_a, items_a = spawn(stream_for(0, 0), 3)
        _, rng_b, items_b = spawn(stream_for(0, 1), 3)
        a = wl.sample_epoch(50.0, rng_a, items_a)
        b = wl.sample_epoch(50.0, rng_b, items_b)
        assert not all(np.array_equal(dense(a[k], wl), dense(b[k], wl))
                       for k in range(2))

    def test_zero_duration_consumes_one_poisson_draw_only(self):
        wl = ItemWorkload.uniform(3, 4, 0.5)
        rng, item_rng = np.random.default_rng(3), np.random.default_rng(4)
        untouched = item_rng.bit_generator.state
        reads, writes = wl.sample_epoch(0.0, rng, item_rng)
        assert reads[0].size == writes[0].size == 0
        # The short-circuit must leave the stream where AccessWorkload
        # leaves it: exactly one Poisson draw consumed, no item draws.
        sibling = np.random.default_rng(3)
        sibling.poisson(0.0)
        assert rng.bit_generator.state == sibling.bit_generator.state
        assert item_rng.bit_generator.state == untouched

    def test_negative_duration_rejected(self):
        wl = ItemWorkload.uniform(3, 4, 0.5)
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError, match="duration"):
            wl.sample_epoch(-1.0, rng, rng)

    def test_item_cdfs_are_built_once_and_read_only(self):
        wl = ItemWorkload.zipf(4, 3, [0.2, 0.4, 0.6, 0.8], exponent=1.0)
        read_cdf, write_cdf = wl.item_cdfs
        assert wl.item_cdfs[0] is read_cdf and wl.item_cdfs[1] is write_cdf
        assert not read_cdf.flags.writeable and not write_cdf.flags.writeable
        assert read_cdf.shape == write_cdf.shape == (4,)
        assert read_cdf[-1] == write_cdf[-1] == 1.0
        # A derived workload builds its own.
        assert replace(wl, alphas=np.full(4, 0.5)).item_cdfs[0] is not read_cdf
        (cells, counts), _ = wl.sample_epoch(
            40.0, np.random.default_rng(1), np.random.default_rng(2))
        assert cells.dtype == counts.dtype == np.int64
        assert (np.diff(cells) > 0).all() and (counts > 0).all()
        assert cells.max() < 4 * 3


class TestTwoStageLaw:
    """Same law as one multinomial per kind over the (item, site) grid."""

    EPOCHS = 2_000
    DURATION = 5.0  # 20 accesses an epoch over 4 sites

    def totals(self, sample):
        wl = replace(
            ItemWorkload.zipf(6, 4, [0.05, 0.9, 0.3, 1.0, 0.0, 0.6], exponent=0.8),
            read_site_weights=np.array([1.0, 2.0, 3.0, 4.0]),
            write_site_weights=np.array([4.0, 1.0, 1.0, 2.0]),
        )
        reads = np.zeros((wl.n_items, wl.n_sites), dtype=np.int64)
        writes = np.zeros_like(reads)
        for _ in range(self.EPOCHS):
            r, w = sample(wl)
            reads += r
            writes += w
        return wl, reads, writes

    def test_per_item_totals_and_cells_match_the_joint_multinomial(self):
        from scipy.stats import chi2_contingency

        rng, item_rng = np.random.default_rng(2024), np.random.default_rng(2025)

        def two_stage(wl):
            r, w = wl.sample_epoch(self.DURATION, rng, item_rng)
            return dense(r, wl), dense(w, wl)

        oracle_rng = np.random.default_rng(2026)
        wl, reads, writes = self.totals(two_stage)
        _, o_reads, o_writes = self.totals(
            lambda wl: joint_multinomial_epoch(wl, self.DURATION, oracle_rng))

        # Per-item totals are Poisson (thinning), so two independent runs
        # differ by a variance of twice the mean.
        volume = self.EPOCHS * self.DURATION * wl.aggregate_rate
        for got, want, mass in (
            (reads, o_reads, wl.item_weights * wl.alphas),
            (writes, o_writes, wl.item_weights * (1.0 - wl.alphas)),
        ):
            mean = volume * mass
            gap = np.abs(got.sum(axis=1) - want.sum(axis=1))
            assert (gap <= 4.0 * np.sqrt(2.0 * mean)).all(), (gap, mean)
            assert (got.sum(axis=1)[mass == 0] == 0).all()

        # Two-sample homogeneity over every (kind, item, site) cell seen.
        table = np.vstack([np.concatenate((reads.ravel(), writes.ravel())),
                           np.concatenate((o_reads.ravel(), o_writes.ravel()))])
        table = table[:, table.sum(axis=0) > 0]
        assert table.shape[1] == 40  # 2 zero-mass items x 4 sites unseen
        assert chi2_contingency(table).pvalue > 1e-3


class TestSiteParity:
    """Per-site traffic is bitwise the single-item workload's, for any N."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_site_marginals_are_access_workloads(self, data):
        from repro.simulation.workload import AccessWorkload

        n_items = data.draw(st.integers(1, 40), label="n_items")
        n_sites = data.draw(st.integers(1, 10), label="n_sites")
        site_weights = st.lists(
            st.floats(0.0, 10.0, allow_subnormal=False),
            min_size=n_sites, max_size=n_sites).filter(lambda w: sum(w) > 0.1)
        read_w = data.draw(site_weights, label="read site weights")
        write_w = data.draw(site_weights, label="write site weights")
        alphas = data.draw(st.lists(alphas_st, min_size=n_items, max_size=n_items),
                           label="alphas")
        wl = replace(
            ItemWorkload.zipf(n_items, n_sites, alphas, exponent=data.draw(exponents)),
            read_site_weights=np.asarray(read_w, dtype=np.float64),
            write_site_weights=np.asarray(write_w, dtype=np.float64),
        )
        single = AccessWorkload.with_distinct_read_write(
            wl.mean_alpha, read_w, write_w)
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        item_rng = np.random.default_rng(seed + 1)
        for duration in (0.0, 3.0, 0.5, 10.0, 3.0):
            reads, writes = wl.sample_epoch(duration, rng, item_rng)
            single_reads, single_writes = single.sample_epoch(duration, twin)
            assert np.array_equal(dense(reads, wl).sum(axis=0), single_reads)
            assert np.array_equal(dense(writes, wl).sum(axis=0), single_writes)
            assert rng.bit_generator.state == twin.bit_generator.state


class Boundaries:
    """An item stream that cycles through every CDF edge, the float just
    below each, and 0.0: the draws where a half-open interval can slip."""

    def __init__(self, wl):
        edges = np.concatenate(([0.0], *wl.item_cdfs))
        edges = np.concatenate((edges, np.nextafter(edges, 0.0)))
        self.values = np.unique(edges[edges < 1.0])
        self.offset = 0

    def random(self, size):
        out = np.resize(np.roll(self.values, -self.offset), size)
        self.offset = (self.offset + size) % self.values.size
        return out


class TestZeroWeightItems:
    """An item a kind never touches is never drawn for it."""

    @staticmethod
    def workload():
        # Reads never touch items 0, 3 and 6 (item 0 starts the read CDF
        # at 0.0); writes never touch items 1, 4 and 7.
        return ItemWorkload.hotspot(
            8, 3, [0.0, 1.0, 0.5, 0.0, 1.0, 0.3, 0.0, 1.0],
            hot_items=[0, 1], hot_fraction=0.6,
        )

    @pytest.mark.parametrize("items", ["seeded", "cdf-edges"])
    def test_read_only_and_write_only_items(self, items):
        wl = self.workload()
        rng = np.random.default_rng(8)
        item_rng = np.random.default_rng(9) if items == "seeded" else Boundaries(wl)
        reads = np.zeros((wl.n_items, wl.n_sites), dtype=np.int64)
        writes = np.zeros_like(reads)
        for _ in range(300):
            r, w = wl.sample_epoch(2.0, rng, item_rng)
            reads += dense(r, wl)
            writes += dense(w, wl)
        per_item_reads, per_item_writes = reads.sum(axis=1), writes.sum(axis=1)
        assert (per_item_reads[wl.alphas == 0.0] == 0).all()
        assert (per_item_writes[wl.alphas == 1.0] == 0).all()
        assert (per_item_reads[wl.alphas > 0.0] > 0).all()
        assert (per_item_writes[wl.alphas < 1.0] > 0).all()

    @pytest.mark.parametrize("alpha,kind_seen", [(0.0, 1), (1.0, 0)])
    def test_read_only_and_write_only_workloads(self, alpha, kind_seen):
        # zipf(3, ...) sums its read masses to 1 + 2**-52 at alpha=1.
        for wl in (ItemWorkload.zipf(3, 4, alpha), ItemWorkload.uniform(10, 4, alpha)):
            assert wl.mean_alpha == alpha
            rng, item_rng = np.random.default_rng(1), np.random.default_rng(2)
            for _ in range(50):
                kinds = wl.sample_epoch(3.0, rng, item_rng)
                assert kinds[1 - kind_seen][0].size == 0
            assert kinds[kind_seen][1].sum() > 0


class TestEpochCost:
    """Counted, not timed: nothing an epoch allocates grows with the grid."""

    @pytest.mark.parametrize("n_items", [1_000, 100_000])
    def test_no_epoch_array_has_a_cell_per_item_and_site(self, n_items):
        import tracemalloc

        n_sites = 16
        wl = ItemWorkload.zipf(
            n_items, n_sites, np.resize([0.05, 0.5, 0.9, 1.0], n_items))
        rng, item_rng = np.random.default_rng(0), np.random.default_rng(1)
        wl.sample_epoch(4.0, rng, item_rng)  # builds the per-item CDFs
        tracemalloc.start()
        try:
            accesses = 0
            for _ in range(20):
                for cells, counts in wl.sample_epoch(4.0, rng, item_rng):
                    assert cells.size <= counts.sum()
                    accesses += int(counts.sum())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert accesses > 20 * 32
        # One byte per (item, site) cell: an int64 grid needs eight. The
        # 64 KiB cap also refuses a per-epoch pass over the items (0.8 MB
        # of float64 at 10^5); about 6 KB is measured at either size.
        assert peak < min(n_items * n_sites, 64 * 1024)
