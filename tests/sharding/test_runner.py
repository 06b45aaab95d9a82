"""Fan-out determinism across worker counts, and the pooled run result."""

import numpy as np
import pytest

from repro.errors import ShardingError
from repro.sharding import (
    ItemWorkload,
    ShardConfig,
    run_sharded,
)
from repro.topology.generators import ring


def _config(n_items=3, n_batches=3, seed=7):
    topology = ring(5)
    workload = ItemWorkload.zipf(
        n_items, topology.n_sites,
        np.linspace(0.2, 0.8, n_items), exponent=1.0,
    )
    return ShardConfig(
        topology=topology,
        workload=workload,
        mean_time_to_failure=30.0,
        mean_time_to_repair=5.0,
        warmup_accesses=50.0,
        accesses_per_batch=600.0,
        n_batches=n_batches,
        seed=seed,
    )


class TestWorkerInvariance:
    @pytest.mark.slow
    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_workers_bitwise_match_serial(self, n_workers):
        config = _config()
        serial = run_sharded(config, engine="vectorized")
        fanned = run_sharded(config, engine="vectorized", n_workers=n_workers)
        assert fanned.bitwise_equal(serial)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ShardingError, match="unknown sharded engine"):
            run_sharded(_config(), engine="telepathy")


class TestRunResult:
    def test_pooled_counters_sum_batches(self):
        config = _config(n_batches=2)
        result = run_sharded(config)
        for name in ("reads_submitted", "reads_granted",
                     "writes_submitted", "writes_granted"):
            pooled = getattr(result, name)
            summed = sum(getattr(b, name) for b in result.batches)
            assert (pooled == summed).all()
            assert pooled.dtype == np.int64
        assert result.measured_time == pytest.approx(
            sum(b.measured_time for b in result.batches)
        )

    def test_item_availability_is_one_for_idle_items(self):
        # A hotspot workload with ~all mass on item 0 can leave the cold
        # tail idle in a short run; idle items report availability 1.0.
        topology = ring(4)
        workload = ItemWorkload.hotspot(
            3, topology.n_sites, 0.5, hot_items=[0], hot_fraction=0.999
        )
        config = ShardConfig(
            topology=topology,
            workload=workload,
            warmup_accesses=0.0,
            accesses_per_batch=5.0,
            n_batches=1,
            seed=2,
        )
        result = run_sharded(config)
        submitted = result.reads_submitted + result.writes_submitted
        avail = result.item_availability
        assert (avail[submitted == 0] == 1.0).all()
        assert ((avail >= 0.0) & (avail <= 1.0)).all()
