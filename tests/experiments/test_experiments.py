"""Tests for the experiment layer (paper params, figures, tables, report)."""

import numpy as np
import pytest

from repro.analytic.complete import complete_density
from repro.analytic.ring import ring_density
from repro.experiments.figures import figure_data
from repro.experiments.paper import (
    PAPER_ALPHAS,
    PAPER_CHORD_COUNTS,
    PAPER_RELIABILITY,
    PAPER_RHO,
    PAPER_SCALE,
    TEST_SCALE,
)
from repro.experiments.report import (
    render_figure,
    render_rw_table,
    render_write_constraint_table,
)
from repro.experiments.tables import read_write_ratio_table, write_constraint_table
from repro.protocols.majority import MajorityConsensusProtocol
from repro.quorum.availability import AvailabilityModel
from repro.simulation.runner import run_simulation


class TestPaperParameters:
    def test_constants(self):
        assert PAPER_CHORD_COUNTS == (0, 1, 2, 4, 16, 256, 4949)
        assert PAPER_ALPHAS == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert PAPER_RELIABILITY == 0.96
        assert PAPER_RHO == pytest.approx(1 / 128)

    def test_paper_scale_matches_section_5_2(self):
        assert PAPER_SCALE.n_sites == 101
        assert PAPER_SCALE.warmup_accesses == 100_000
        assert PAPER_SCALE.accesses_per_batch == 1_000_000

    def test_config_derivation(self):
        cfg = TEST_SCALE.config(2, alpha=0.75)
        assert cfg.component_reliability == pytest.approx(0.96)
        assert cfg.mean_time_to_failure == pytest.approx(128.0)
        assert cfg.workload.alpha == 0.75
        assert cfg.topology.n_sites == TEST_SCALE.n_sites

    def test_chord_clamping_at_small_scale(self):
        cfg = TEST_SCALE.config(4949, alpha=0.5)
        assert cfg.topology.is_fully_connected()

    def test_explicit_topology_override(self):
        from repro.topology.generators import grid

        topo = grid(3, 3)
        cfg = TEST_SCALE.config(0, alpha=0.5, topology=topo)
        assert cfg.topology is topo


class TestFigureData:
    @pytest.fixture(scope="class")
    def fig(self):
        return figure_data(chords=2, scale=TEST_SCALE, seed=7)

    def test_series_cover_alphas(self, fig):
        assert tuple(s.alpha for s in fig.series) == PAPER_ALPHAS

    def test_curve_shapes(self, fig):
        q_max = fig.model.max_read_quorum
        assert fig.quorums.shape == (q_max,)
        for s in fig.series:
            assert s.availability.shape == (q_max,)
            assert ((0 <= s.availability) & (s.availability <= 1 + 1e-12)).all()

    def test_alpha_orders_curves_at_qr1(self, fig):
        """At q_r = 1 availability is alpha*p + (1-alpha)*W(T): increasing
        in alpha because reads are far easier than write-all."""
        values = [s.availability[0] for s in fig.series]
        assert values == sorted(values)

    def test_left_edge_identity(self, fig):
        """Availability at q_r=1, alpha=1 is the site reliability (5.3)."""
        top = fig.curve(1.0)
        assert top.availability[0] == pytest.approx(0.96, abs=0.02)

    def test_convergence_at_majority(self, fig):
        assert fig.convergence_spread < 0.06

    def test_curve_lookup(self, fig):
        assert fig.curve(0.5).alpha == 0.5
        with pytest.raises(KeyError):
            fig.curve(0.33)

    def test_figure_requires_some_input(self):
        with pytest.raises(ValueError):
            figure_data()


class TestFigureAccounting:
    """A figure runs on ``expected`` accounting whatever its config says."""

    @pytest.fixture(scope="class")
    def sampled_cfg(self):
        return TEST_SCALE.config(2, alpha=0.5, seed=5)

    @pytest.fixture(scope="class")
    def figs(self, sampled_cfg):
        assert sampled_cfg.accounting == "sampled"
        return (figure_data(config=sampled_cfg),
                figure_data(config=sampled_cfg.with_accounting("expected")))

    def test_config_accounting_is_overridden(self, figs):
        for fig in figs:
            assert fig.result.config.accounting == "expected"

    def test_both_configs_give_the_same_bytes(self, figs):
        from_sampled, from_expected = figs
        assert np.array_equal(from_sampled.quorums, from_expected.quorums)
        assert (from_sampled.result.density_matrix("time").tobytes()
                == from_expected.result.density_matrix("time").tobytes())
        for a, b in zip(from_sampled.series, from_expected.series):
            assert a.alpha == b.alpha
            assert a.availability.tobytes() == b.availability.tobytes()

    def test_nothing_a_figure_reads_differs_from_the_sampled_run(
            self, figs, sampled_cfg):
        protocol = MajorityConsensusProtocol(sampled_cfg.topology.total_votes)
        sampled = run_simulation(sampled_cfg, protocol)
        for fig in figs:
            assert (fig.result.density_matrix("time").tobytes()
                    == sampled.density_matrix("time").tobytes())
            for got, want in zip(fig.result.batches, sampled.batches):
                assert got.surv_read == want.surv_read
                assert got.surv_write == want.surv_write
                assert got.n_epochs == want.n_epochs
                assert got.n_events == want.n_events

    def test_submitted_volume_is_the_exact_expectation(self, figs, sampled_cfg):
        # rate * measured time * alpha, not a Poisson draw around it.
        expected_reads = TEST_SCALE.accesses_per_batch * sampled_cfg.workload.alpha
        for fig in figs:
            for batch in fig.result.batches:
                assert batch.reads_submitted == pytest.approx(
                    expected_reads, rel=1e-12)


class TestWriteConstraintTable:
    @pytest.fixture(scope="class")
    def model(self):
        f = ring_density(101, 0.96, 0.96)
        return AvailabilityModel(f, f)

    def test_rows_cover_floors(self, model):
        rows = write_constraint_table(model, alpha=0.75)
        assert len(rows) == 6
        assert rows[0].write_floor == 0.0

    def test_floor_zero_unconstrained(self, model):
        rows = write_constraint_table(model, 0.75, write_floors=(0.0,))
        assert rows[0].feasible
        assert rows[0].read_quorum == 1  # ring at high alpha: ROWA optimum

    def test_tighter_floor_higher_quorum(self, model):
        rows = write_constraint_table(model, 0.75, write_floors=(0.0, 0.1, 0.3))
        feasible = [r for r in rows if r.feasible]
        quorums = [r.read_quorum for r in feasible]
        assert quorums == sorted(quorums)

    def test_floors_respected(self, model):
        for row in write_constraint_table(model, 0.75):
            if row.feasible and row.write_floor > 0:
                assert row.write_availability >= row.write_floor

    def test_infeasible_floor_flagged(self):
        f = ring_density(21, 0.5, 0.5)
        model = AvailabilityModel(f, f)
        rows = write_constraint_table(model, 0.5, write_floors=(0.99,))
        assert not rows[0].feasible
        assert rows[0].read_quorum is None


class TestReadWriteRatioTable:
    @pytest.fixture(scope="class")
    def models(self):
        ring_f = ring_density(101, 0.96, 0.96)
        dense_f = complete_density(101, 0.96, 0.96)
        return [
            ("ring-101", AvailabilityModel(ring_f, ring_f)),
            ("complete-101", AvailabilityModel(dense_f, dense_f)),
        ]

    def test_grid_coverage(self, models):
        rows = read_write_ratio_table(models, PAPER_ALPHAS)
        assert len(rows) == 10

    def test_section_5_5_claims(self, models):
        """Dense topologies / low alpha -> majority optimal; sparse + high
        alpha -> ROWA optimal and majority worst."""
        rows = {(r.topology_name, r.alpha): r for r in
                read_write_ratio_table(models, PAPER_ALPHAS)}
        assert rows[("complete-101", 0.0)].optimum_is_majority
        assert rows[("complete-101", 0.25)].optimum_is_majority
        assert rows[("ring-101", 1.0)].optimum_is_rowa
        assert rows[("ring-101", 0.75)].optimum_is_rowa
        assert rows[("ring-101", 1.0)].majority_is_worst

    def test_regime_flags_consistent(self, models):
        for row in read_write_ratio_table(models, PAPER_ALPHAS):
            assert (
                row.optimum_is_majority + row.optimum_is_rowa + row.optimum_is_interior
                <= 2
            )
            # At least one regime label applies unless T is degenerate.
            assert row.optimum_is_majority or row.optimum_is_rowa or row.optimum_is_interior


class TestReportRendering:
    def test_render_figure(self):
        fig = figure_data(chords=0, scale=TEST_SCALE, seed=3)
        text = render_figure(fig)
        assert "availability vs read quorum" in text
        assert "optimum alpha=0.75" in text
        assert "convergence spread" in text
        batches = fig.result.batches
        assert (f"accounting: expected · {len(batches)} batches · "
                f"{sum(b.n_epochs for b in batches)} epochs · "
                f"{sum(b.n_events for b in batches)} events") in text

    def test_render_write_constraint(self):
        f = ring_density(21, 0.96, 0.96)
        model = AvailabilityModel(f, f)
        rows = write_constraint_table(model, 0.75, write_floors=(0.0, 0.2, 0.99))
        text = render_write_constraint_table(rows, 0.75, "ring-21")
        assert "floor A_w" in text
        assert "infeasible" in text

    def test_render_rw_table(self):
        f = ring_density(21, 0.96, 0.96)
        model = AvailabilityModel(f, f)
        rows = read_write_ratio_table([("ring-21", model)], (0.0, 1.0))
        text = render_rw_table(rows)
        assert "regime" in text
        assert "ring-21" in text
