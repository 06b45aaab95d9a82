"""ShardConfig validation, derived quantities, and config borrowing."""

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ShardingError, SimulationError
from repro.sharding import ItemWorkload, ShardConfig
from repro.simulation.config import SimulationConfig
from repro.simulation.workload import AccessWorkload
from repro.topology.generators import ring


def _workload(n_items=3, n_sites=5):
    return ItemWorkload.uniform(n_items, n_sites, 0.5)


#: Both configs, each with the error class it raises (ShardingError is a
#: SimulationError, so the single-item config must not raise the subclass).
CONFIGS = {
    "simulation": (lambda **kw: SimulationConfig(
        ring(5), AccessWorkload.uniform(5, 0.5), **kw), SimulationError),
    "shard": (lambda **kw: ShardConfig(
        topology=ring(5), workload=_workload(), **kw), ShardingError),
}

#: ``(mean_time_to_failure, mean_time_to_repair, message)``; ring(5) has
#: 5 sites + 5 links = 10 components.
BAD_FAILURE_PARAMETERS = [
    (float("nan"), 5.0, "mean_time_to_failure must be positive, not NaN"),
    (128.0, float("nan"), "mean_time_to_repair must be positive, not NaN"),
    (np.array([1.0] * 9 + [np.nan]), 5.0, "mean_time_to_failure must be positive"),
    (0.0, 5.0, "mean_time_to_failure must be positive"),
    (128.0, -1.0, "mean_time_to_repair must be positive"),
    (np.ones(4), 5.0, r"mean_time_to_failure .* n_sites \+ n_links = 10"),
    (128.0, np.ones((2, 5)), r"mean_time_to_repair .* n_sites \+ n_links = 10"),
    (float("inf"), float("inf"), "both inf"),
    (np.full(10, np.inf), np.r_[np.ones(9), np.inf], "both inf"),
]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("mttf,mttr,message", BAD_FAILURE_PARAMETERS)
def test_one_failure_parameter_rule_at_construction(config, mttf, mttr, message):
    build, error = CONFIGS[config]
    with pytest.raises(SimulationError, match=message) as excinfo:
        build(mean_time_to_failure=mttf, mean_time_to_repair=mttr)
    assert type(excinfo.value) is error
    # ``inf`` alone is "never fails" / "never repaired": legal in both.
    build(mean_time_to_failure=float("inf"), mean_time_to_repair=5.0)
    build(mean_time_to_failure=128.0, mean_time_to_repair=float("inf"))


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("field,value,message", [
    ("warmup_accesses", -1.0, "finite and non-negative"),
    ("warmup_accesses", float("nan"), "finite and non-negative"),
    ("warmup_accesses", float("inf"), "finite and non-negative"),
    ("accesses_per_batch", 0.0, "finite and positive"),
    ("accesses_per_batch", float("nan"), "finite and positive"),
    ("accesses_per_batch", float("inf"), "finite and positive"),
])
def test_one_access_volume_rule_at_construction(config, field, value, message):
    # NaN compares false to both bounds and ``inf`` passes them: the one
    # gave a NaN SURV, the other a batch that never ends.
    build, error = CONFIGS[config]
    with pytest.raises(SimulationError,
                       match=f"^{field} must be {message}, got {value}$") as excinfo:
        build(**{field: value})
    assert type(excinfo.value) is error


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("field,mask,count", [
    ("fallible_sites", np.ones(3, dtype=bool), 5),
    ("fallible_sites", np.ones((5, 1), dtype=bool), 5),
    ("fallible_links", np.zeros(2, dtype=bool), 5),
    ("fallible_links", np.ones(11, dtype=bool), 5),
])
def test_one_fallible_mask_rule_at_construction(config, field, mask, count):
    # A wrong-length mask used to construct; the single-item run then
    # quarantined every batch and the sharded one raised from run_sharded.
    build, error = CONFIGS[config]
    message = f"{field} must have shape ({count},), got {mask.shape}"
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$") as excinfo:
        build(**{field: mask})
    assert type(excinfo.value) is error
    build(**{field: np.ones(count, dtype=bool)})
    build(**{field: None})


def test_quorum_classes_grouped_once_per_config(monkeypatch):
    import repro.sharding.config as config_module
    from repro.sharding import run_sharded

    calls = []
    group_rows = config_module.group_rows

    def counted(rows):
        calls.append(rows.shape)
        return group_rows(rows)

    monkeypatch.setattr(config_module, "group_rows", counted)
    config = ShardConfig(topology=ring(5), workload=_workload(), n_batches=3,
                         warmup_accesses=10.0, accesses_per_batch=50.0)
    result = run_sharded(config)
    assert result.n_classes == 1
    assert calls == [(3, 6)]
    class_of, first = config.quorum_classes()
    assert not class_of.flags.writeable and not first.flags.writeable
    # A replaced config is a new config with its own grouping.
    requorumed = replace(config, read_quorums=np.array([1, 2, 3]))
    assert requorumed.quorum_classes()[1].size == 3
    assert len(calls) == 2


class TestValidation:
    def test_site_count_mismatch_rejected(self):
        with pytest.raises(ShardingError, match="topology has"):
            ShardConfig(topology=ring(5), workload=_workload(n_sites=4))

    def test_votes_shape_checked(self):
        with pytest.raises(ShardingError, match="votes must have shape"):
            ShardConfig(
                topology=ring(5),
                workload=_workload(),
                votes=np.ones((2, 5), dtype=np.int64),
            )

    def test_negative_votes_rejected(self):
        votes = np.ones((3, 5), dtype=np.int64)
        votes[1, 2] = -1
        with pytest.raises(ShardingError, match="non-negative"):
            ShardConfig(topology=ring(5), workload=_workload(), votes=votes)

    def test_zero_vote_item_rejected(self):
        votes = np.ones((3, 5), dtype=np.int64)
        votes[2] = 0
        with pytest.raises(ShardingError, match="item 2 has no votes"):
            ShardConfig(topology=ring(5), workload=_workload(), votes=votes)

    def test_read_quorum_out_of_range_rejected(self):
        with pytest.raises(ShardingError, match="outside"):
            ShardConfig(
                topology=ring(5),
                workload=_workload(),
                read_quorums=np.asarray([2, 6, 3]),
            )

    def test_read_quorums_shape_checked(self):
        with pytest.raises(ShardingError, match="read_quorums must have shape"):
            ShardConfig(
                topology=ring(5),
                workload=_workload(),
                read_quorums=np.asarray([2, 3]),
            )

    def test_scalar_read_quorum_broadcasts(self):
        config = ShardConfig(
            topology=ring(5), workload=_workload(), read_quorums=np.int64(3)
        )
        assert (config.read_quorums == 3).all()

    def test_bad_initial_state_rejected(self):
        with pytest.raises(ShardingError, match="initial_state"):
            ShardConfig(
                topology=ring(5), workload=_workload(), initial_state="warm"
            )

    def test_nonpositive_batches_rejected(self):
        with pytest.raises(ShardingError, match="n_batches"):
            ShardConfig(topology=ring(5), workload=_workload(), n_batches=0)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ShardingError, match="warmup_accesses"):
            ShardConfig(
                topology=ring(5), workload=_workload(), warmup_accesses=-1.0
            )

    def test_mttf_vector_length_checked(self):
        topology = ring(5)  # 5 sites + 5 links = 10 components
        with pytest.raises(ShardingError, match="n_sites \\+ n_links"):
            ShardConfig(
                topology=topology,
                workload=_workload(),
                mean_time_to_failure=np.ones(4),
            )

    def test_nonpositive_mttr_rejected(self):
        with pytest.raises(ShardingError, match="mean_time_to_repair"):
            ShardConfig(
                topology=ring(5), workload=_workload(), mean_time_to_repair=0.0
            )


class TestDefaultsAndProperties:
    def test_default_votes_broadcast_topology_assignment(self):
        config = ShardConfig(topology=ring(5), workload=_workload())
        assert config.votes.shape == (3, 5)
        assert (config.votes == np.asarray(ring(5).votes)).all()

    def test_default_read_quorums_are_write_favouring_majorities(self):
        config = ShardConfig(topology=ring(5), workload=_workload())
        totals = config.total_votes
        assert (config.read_quorums == np.maximum(totals // 2, 1)).all()

    def test_write_quorums_follow_paper_coupling(self):
        config = ShardConfig(
            topology=ring(5),
            workload=_workload(),
            read_quorums=np.asarray([1, 3, 5]),
        )
        assert (
            config.write_quorums
            == config.total_votes - config.read_quorums + 1
        ).all()

    def test_max_total_votes_tracks_heaviest_item(self):
        votes = np.ones((3, 5), dtype=np.int64)
        votes[1] = [2, 2, 2, 2, 1]
        config = ShardConfig(topology=ring(5), workload=_workload(), votes=votes)
        assert config.max_total_votes == 9

    def test_timebase_derived_from_aggregate_rate(self):
        config = ShardConfig(
            topology=ring(5),
            workload=_workload(),
            warmup_accesses=100.0,
            accesses_per_batch=400.0,
        )
        rate = config.workload.aggregate_rate
        assert config.warmup_time == pytest.approx(100.0 / rate)
        assert config.batch_time == pytest.approx(400.0 / rate)

    def test_with_helpers_replace_fields(self):
        config = ShardConfig(topology=ring(5), workload=_workload())
        assert config.with_seed(9).seed == 9


class TestFromSimulation:
    def test_borrows_network_and_failure_knobs(self):
        topology = ring(7)
        sim = SimulationConfig(
            topology=topology,
            workload=AccessWorkload.uniform(topology.n_sites, 0.5),
            mean_time_to_failure=42.0,
            mean_time_to_repair=6.0,
            warmup_accesses=123.0,
            accesses_per_batch=456.0,
            n_batches=4,
            initial_state="all_up",
            seed=17,
        )
        config = ShardConfig.from_simulation(
            sim, ItemWorkload.uniform(2, topology.n_sites, 0.5)
        )
        assert config.topology is topology
        assert config.mean_time_to_failure == 42.0
        assert config.mean_time_to_repair == 6.0
        assert config.warmup_accesses == 123.0
        assert config.accesses_per_batch == 456.0
        assert config.n_batches == 4
        assert config.initial_state == "all_up"
        assert config.seed == 17

    def test_overrides_win(self):
        topology = ring(5)
        sim = SimulationConfig(
            topology=topology,
            workload=AccessWorkload.uniform(topology.n_sites, 0.5),
            n_batches=4,
        )
        config = ShardConfig.from_simulation(
            sim,
            ItemWorkload.uniform(2, topology.n_sites, 0.5),
            read_quorums=[2, 3],
            n_batches=2,
        )
        assert config.n_batches == 2
        assert config.read_quorums.tolist() == [2, 3]
