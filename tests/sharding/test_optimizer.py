"""Per-shard optimization: grouping algebra and plan invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic import closed_form_density
from repro.errors import ShardingError
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import optimal_read_quorum
from repro.sharding import group_items, optimize_shards
from repro.sharding.grouping import group_rows
from repro.topology.generators import ring


class TestGrouping:
    @given(
        st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
            min_size=1, max_size=40,
        ),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_grouping_is_a_partition(self, alpha_values, n_sites):
        """Every item lands in exactly one group matching its signature."""
        alphas = np.asarray(alpha_values)
        n_items = alphas.shape[0]
        rng = np.random.default_rng(n_items)
        votes = rng.integers(1, 3, size=(n_items, n_sites))
        group_of, groups = group_items(alphas, votes)

        # Union of the groups is the whole id space, with no overlap.
        all_ids = np.concatenate([g.item_indices for g in groups])
        assert sorted(all_ids.tolist()) == list(range(n_items))
        # Membership is consistent both ways and signature-exact.
        for g, group in enumerate(groups):
            assert group.index == g
            for i in group.item_indices:
                assert group_of[i] == g
                assert alphas[i] == group.alpha
                assert tuple(votes[i]) == group.votes
        # Two items share a group iff they share the exact signature.
        for i in range(n_items):
            for j in range(i + 1, n_items):
                same_sig = alphas[i] == alphas[j] and (
                    votes[i] == votes[j]
                ).all()
                assert (group_of[i] == group_of[j]) == same_sig

    def test_groups_ordered_by_first_occurrence(self):
        alphas = np.asarray([0.5, 0.2, 0.5, 0.9, 0.2])
        votes = np.ones((5, 3), dtype=np.int64)
        group_of, groups = group_items(alphas, votes)
        assert [g.alpha for g in groups] == [0.5, 0.2, 0.9]
        assert group_of.tolist() == [0, 1, 0, 2, 1]

    def test_signed_zero_alphas_are_one_class(self):
        group_of, groups = group_items(
            np.asarray([0.0, -0.0, 0.5, 0.0]), np.ones((4, 2), dtype=np.int64))
        assert group_of.tolist() == [0, 0, 1, 0]
        assert groups[0].item_indices.tolist() == [0, 1, 3]

    def test_group_rows_lists_representatives_in_first_occurrence_order(self):
        rows = np.asarray([[2, 1], [0, 5], [2, 1], [0, 0], [0, 5], [0, 0]])
        class_of, first = group_rows(rows)
        assert class_of.tolist() == [0, 1, 0, 2, 1, 2]
        assert first.tolist() == [0, 1, 3]
        class_of, first = group_rows(rows[:0])
        assert class_of.size == first.size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShardingError, match="votes"):
            group_items(np.asarray([0.5, 0.5]), np.ones((3, 2), dtype=np.int64))


class TestOptimizeShards:
    def test_one_optimization_per_class(self):
        alphas = np.tile(np.asarray([0.2, 0.5, 0.8]), 100)
        plan = optimize_shards(ring(5), alphas, 0.9, 0.85)
        assert plan.n_items == 300
        assert plan.optimizations_run == 3
        # Every member of a class carries its class's assignment.
        for group, best in zip(plan.groups, plan.group_results):
            assert (plan.read_quorums[group.item_indices]
                    == best.read_quorum).all()
            assert (plan.availabilities[group.item_indices]
                    == best.availability).all()

    def test_matches_single_item_optimizer(self):
        """Each class's result is exactly the paper's Figure-1 optimum."""
        row = closed_form_density("ring", 5, 0.9, 0.85)
        model = AvailabilityModel(row, row)
        alphas = np.asarray([0.3, 0.7])
        plan = optimize_shards(ring(5), alphas, density=row)
        for i, alpha in enumerate(alphas):
            best = optimal_read_quorum(model, float(alpha))
            assert plan.read_quorums[i] == best.read_quorum
            assert plan.availabilities[i] == best.availability

    def test_alpha_monotone_read_quorums(self):
        alphas = np.linspace(0.0, 1.0, 11)
        plan = optimize_shards(ring(7), alphas, 0.9, 0.85)
        assert (np.diff(plan.read_quorums) <= 0).all()

    def test_permutation_equivariance(self):
        alphas = np.asarray([0.2, 0.5, 0.8, 0.5, 0.35])
        perm = np.asarray([3, 0, 4, 1, 2])
        plan = optimize_shards(ring(5), alphas, 0.9, 0.85)
        plan_perm = optimize_shards(ring(5), alphas[perm], 0.9, 0.85)
        assert (plan_perm.read_quorums == plan.read_quorums[perm]).all()
        assert (plan_perm.availabilities == plan.availabilities[perm]).all()

    def test_class_duplication_changes_nothing(self):
        alphas = np.asarray([0.2, 0.5, 0.8])
        extended = np.concatenate([alphas, [0.5, 0.5, 0.2]])
        base = optimize_shards(ring(5), alphas, 0.9, 0.85)
        ext = optimize_shards(ring(5), extended, 0.9, 0.85)
        assert ext.optimizations_run == base.optimizations_run
        assert (ext.read_quorums[:3] == base.read_quorums).all()
        assert (ext.availabilities[:3] == base.availabilities).all()
        assert ext.read_quorums[3] == base.read_quorums[1]
        assert ext.read_quorums[5] == base.read_quorums[0]

    def test_monte_carlo_engine_is_seed_deterministic(self):
        alphas = np.asarray([0.3, 0.6])
        kwargs = dict(engine="monte-carlo", n_samples=500, seed=3)
        one = optimize_shards(ring(6), alphas, 0.9, 0.85, **kwargs)
        two = optimize_shards(ring(6), alphas, 0.9, 0.85, **kwargs)
        assert (one.read_quorums == two.read_quorums).all()
        assert (one.availabilities == two.availabilities).all()

    def test_density_with_multiple_vote_classes_rejected(self):
        row = closed_form_density("ring", 4, 0.9, 0.85)
        votes = np.asarray([[1, 1, 1, 1], [2, 1, 1, 1]])
        with pytest.raises(ShardingError, match="vote class"):
            optimize_shards(ring(4), np.asarray([0.5, 0.5]),
                            votes=votes, density=row)

    def test_missing_reliabilities_rejected(self):
        with pytest.raises(ShardingError, match="reliability"):
            optimize_shards(ring(4), np.asarray([0.5]))

    def test_bad_engine_rejected(self):
        with pytest.raises(ShardingError, match="unknown density engine"):
            optimize_shards(ring(4), np.asarray([0.5]), 0.9, 0.85,
                            engine="oracle")

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ShardingError, match="alpha"):
            optimize_shards(ring(4), np.asarray([1.5]), 0.9, 0.85)

    def test_nan_alpha_rejected(self):
        with pytest.raises(ShardingError, match="alpha .* got nan"):
            optimize_shards(ring(4), np.asarray([0.5, np.nan]), 0.9, 0.85)
