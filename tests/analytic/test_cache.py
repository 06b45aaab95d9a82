"""Tests for the cross-layer density cache and the growable Rel tables."""

import numpy as np
import pytest

from repro.analytic import cache as density_cache
from repro.analytic import closed_form_density
from repro.analytic.cache import DensityCache
from repro.analytic.enumeration import enumerate_density, enumerate_density_matrix
from repro.topology.generators import ring


@pytest.fixture(autouse=True)
def _fresh_cache():
    density_cache.get_cache().clear()
    yield
    density_cache.get_cache().clear()


class TestDensityCache:
    def test_second_call_hits(self):
        first = closed_form_density("ring", 6, 0.9, 0.9)
        second = closed_form_density("ring", 6, 0.9, 0.9)
        assert np.array_equal(first, second)
        stats = density_cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.entries == 1

    def test_distinct_points_do_not_collide(self):
        a = closed_form_density("ring", 6, 0.9, 0.9)
        b = closed_form_density("ring", 6, 0.95, 0.95)
        c = closed_form_density("complete", 6, 0.9, 0.9)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert density_cache.stats().misses == 3

    def test_quantization_shares_entries(self):
        rel = 0.9
        jittered = rel + 1e-15  # below QUANTIZE_DECIMALS resolution
        closed_form_density("ring", 6, rel, rel)
        closed_form_density("ring", 6, jittered, jittered)
        assert density_cache.stats().hits == 1

    def test_caller_mutation_cannot_poison(self):
        first = closed_form_density("ring", 6, 0.9, 0.9)
        first[0] = 42.0
        second = closed_form_density("ring", 6, 0.9, 0.9)
        assert second[0] != 42.0

    def test_enumeration_layer_and_row_keys(self):
        topo = ring(4)
        full = enumerate_density_matrix(topo, 0.9, 0.8)
        again = enumerate_density_matrix(topo, 0.9, 0.8)
        assert np.array_equal(full, again)
        row = enumerate_density(topo, 1, 0.9, 0.8)
        stats = density_cache.stats()
        # One miss; a single row is read from the cached matrix.
        assert stats.by_layer["enumeration"] == (2, 1)
        assert np.array_equal(row, full[1])

    def test_votes_change_the_key(self):
        base = enumerate_density_matrix(ring(4), 0.9, 0.8)
        weighted = enumerate_density_matrix(
            ring(4, votes=[2, 1, 1, 1]), 0.9, 0.8
        )
        assert density_cache.stats().misses == 2
        assert base.shape != weighted.shape

    def test_env_knob_disables(self, monkeypatch):
        monkeypatch.setenv(density_cache.ENV_KNOB, "0")
        assert not density_cache.enabled()
        closed_form_density("ring", 6, 0.9, 0.9)
        closed_form_density("ring", 6, 0.9, 0.9)
        stats = density_cache.stats()
        assert stats.hits == 0
        assert stats.misses == 0
        assert stats.entries == 0

    def test_disabled_context_manager(self):
        with density_cache.disabled():
            assert not density_cache.enabled()
            closed_form_density("ring", 6, 0.9, 0.9)
        assert density_cache.enabled()
        assert density_cache.stats().entries == 0

    def test_lru_eviction_is_bounded(self):
        small = DensityCache(max_entries=2)
        for i in range(4):
            small.put("closed_form", ("k", i), np.array([float(i)]))
        assert len(small._store) == 2
        assert small.get("closed_form", ("k", 0)) is None
        assert small.get("closed_form", ("k", 3)) is not None

    def test_hit_rate(self):
        closed_form_density("ring", 6, 0.9, 0.9)
        closed_form_density("ring", 6, 0.9, 0.9)
        closed_form_density("ring", 6, 0.9, 0.9)
        stats = density_cache.stats()
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_telemetry_counters(self):
        from repro.telemetry.recorder import Telemetry, use

        tel = Telemetry()
        with use(tel):
            closed_form_density("ring", 6, 0.9, 0.9)
            closed_form_density("ring", 6, 0.9, 0.9)
        snapshot = tel.snapshot()
        assert snapshot.counter_value(
            "repro_density_cache_misses_total", layer="closed_form"
        ) == 1.0
        assert snapshot.counter_value(
            "repro_density_cache_hits_total", layer="closed_form"
        ) == 1.0

    def test_sweep_shares_closed_form_entries(self):
        from repro.experiments.sweeps import reliability_sweep

        closed_form_density("ring", 6, 0.9, 0.9)
        reliability_sweep("ring", 6, 0.8, [0.9])
        assert density_cache.stats().hits >= 1


class TestGrowableRelTables:
    def test_extension_is_bitwise_identical(self):
        from repro.analytic.rel import _RAW_TABLES, rel_table

        _RAW_TABLES.clear()
        fresh = rel_table(24, 0.93).copy()
        _RAW_TABLES.clear()
        rel_table(5, 0.93)
        rel_table(13, 0.93)  # extends 5 -> 13
        extended = rel_table(24, 0.93)  # extends 13 -> 24
        assert np.array_equal(fresh, extended)
        _RAW_TABLES.clear()

    def test_larger_request_reuses_prefix(self):
        from repro.analytic.rel import _RAW_TABLES, rel_table

        _RAW_TABLES.clear()
        small = rel_table(6, 0.9).copy()
        big = rel_table(12, 0.9)
        assert np.array_equal(small, big[:7])
        assert len(_RAW_TABLES) == 1  # one growable table, not one per m_max
        _RAW_TABLES.clear()

    def test_zero_size_bootstrap(self):
        from repro.analytic.rel import _RAW_TABLES, rel_table

        _RAW_TABLES.clear()
        assert rel_table(0, 0.7).tolist() == [1.0]
        grown = rel_table(3, 0.7)
        assert grown[0] == 1.0 and grown[1] == 1.0
        _RAW_TABLES.clear()
