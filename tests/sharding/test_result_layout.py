"""What a sharded batch result stores, and that its per-item views are the answer.

A :class:`ShardBatchResult` keeps SURV time and the time-weighted density
per quorum class and the access-weighted density as the cells it
touched; only the four access counts and ``class_of`` are per item. These
tests pin the layout's size, hold its per-item views bitwise to the
per-item reference loop, and check that it crosses the process pool
unchanged.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharding import ItemWorkload, ShardConfig, run_sharded
from repro.topology.generators import ring

#: Items that draw every access; the rest have zero weight and are never drawn.
HOT_ITEMS = 10

#: The per-item views of a batch result.
PER_ITEM_VIEWS = (
    "reads_submitted", "reads_granted", "writes_submitted", "writes_granted",
    "surv_read_time", "surv_write_time", "density_time", "density_access",
)


def _hot_config(n_items):
    """One quorum class; accesses fall on the first ``HOT_ITEMS`` items only,
    so the history, the draws and the touched cells do not depend on
    ``n_items``."""
    weights = np.zeros(n_items)
    weights[:HOT_ITEMS] = 1.0
    workload = ItemWorkload(
        n_items=n_items, n_sites=6, item_weights=weights, alphas=0.6,
        read_site_weights=np.ones(6), write_site_weights=np.ones(6),
    )
    return ShardConfig(
        topology=ring(6), workload=workload, mean_time_to_failure=30.0,
        mean_time_to_repair=5.0, warmup_accesses=50.0,
        accesses_per_batch=1_000.0, n_batches=1, seed=4,
    )


def _stored_bytes(batch):
    return sum(
        getattr(batch, f.name).nbytes for f in fields(batch)
        if isinstance(getattr(batch, f.name), np.ndarray)
    )


def _same_fields(a, b):
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        and getattr(a, f.name).dtype == getattr(b, f.name).dtype
        if isinstance(getattr(a, f.name), np.ndarray)
        else getattr(a, f.name) == getattr(b, f.name)
        for f in fields(a)
    )


class TestStoredSize:
    def test_one_class_grows_only_by_the_per_item_vectors(self):
        small = run_sharded(_hot_config(1_000)).batches[0]
        large = run_sharded(_hot_config(10_000)).batches[0]
        assert small.class_density_time.shape[0] == 1
        assert small.access_cells.size > 0
        # The per-class books and the touched cells are the same arrays
        # at both sizes ...
        for name in ("class_surv_read_time", "class_surv_write_time",
                     "class_density_time", "access_cells", "access_counts"):
            assert getattr(small, name).tobytes() == getattr(large, name).tobytes()
        # ... so the results differ by the four int64 counts and
        # ``class_of``, 8 bytes an item each, and by nothing else.
        per_item = sum(getattr(small, name).itemsize for name in (
            "reads_submitted", "reads_granted", "writes_submitted",
            "writes_granted", "class_of"))
        assert per_item == 40
        assert _stored_bytes(large) - _stored_bytes(small) == 9_000 * per_item
        # The dense views are the old 2 x (items x votes) + 2 x items floats.
        width = small.class_density_time.shape[1]
        assert large.density_time.nbytes == large.density_access.nbytes == (
            10_000 * width * 8)
        assert (large.density_access[HOT_ITEMS:] == 0).all()


class TestPerItemViews:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_views_are_the_reference_dense_tables(self, data):
        n_sites = 5
        row = st.lists(st.integers(0, 3), min_size=n_sites, max_size=n_sites).filter(
            lambda votes: sum(votes) >= 2)
        rows = data.draw(st.lists(row, min_size=2, max_size=4), label="class rows")
        quorums = [data.draw(st.integers(1, sum(r) // 2), label="q_r") for r in rows]
        members = data.draw(
            st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=9),
            label="class of item")
        n_items = len(members)
        config = ShardConfig(
            topology=ring(n_sites),
            workload=ItemWorkload.zipf(
                n_items, n_sites, np.linspace(0.1, 0.9, n_items), exponent=1.0),
            votes=np.array([rows[c] for c in members]),
            read_quorums=np.array([quorums[c] for c in members]),
            mean_time_to_failure=30.0, mean_time_to_repair=5.0,
            warmup_accesses=50.0, accesses_per_batch=400.0, n_batches=2,
            seed=data.draw(st.integers(0, 50), label="seed"),
        )
        vec = run_sharded(config, engine="vectorized")
        ref = run_sharded(config, engine="reference")
        for v, r in zip(vec.batches, ref.batches):
            # The reference keeps every item its own class: its stored
            # books are the dense per-item tables.
            assert (r.class_of == np.arange(n_items)).all()
            assert v.surv_read_time.tobytes() == r.class_surv_read_time.tobytes()
            assert v.surv_write_time.tobytes() == r.class_surv_write_time.tobytes()
            assert v.density_time.tobytes() == r.class_density_time.tobytes()
            assert v.density_access.tobytes() == r.density_access.tobytes()
            # Both hand over the touched cells in one canonical order.
            assert v.access_cells.tobytes() == r.access_cells.tobytes()
            assert v.access_counts.tobytes() == r.access_counts.tobytes()
            assert v.bitwise_equal(r)
        for pooled in ("surv_read", "surv_write"):
            assert getattr(vec, pooled).tobytes() == getattr(ref, pooled).tobytes()
        assert vec.density_time().tobytes() == ref.density_time().tobytes()
        assert vec.density_access().tobytes() == ref.density_access().tobytes()

    def test_pooled_views_are_the_per_item_sums_in_batch_order(self):
        config = ShardConfig(
            topology=ring(6),
            workload=ItemWorkload.zipf(40, 6, np.linspace(0.1, 0.9, 40)),
            read_quorums=np.resize([1, 2, 3], 40),
            mean_time_to_failure=30.0, mean_time_to_repair=5.0,
            warmup_accesses=50.0, accesses_per_batch=800.0, n_batches=3, seed=6,
        )
        result = run_sharded(config)
        assert result.n_classes == 3
        for name in ("density_time", "density_access"):
            summed = np.zeros_like(getattr(result.batches[0], name))
            for batch in result.batches:
                summed += getattr(batch, name)
            assert getattr(result, name)().tobytes() == summed.tobytes()
        for pooled, view in (("surv_read", "surv_read_time"),
                             ("surv_write", "surv_write_time")):
            summed = np.zeros(40)
            for batch in result.batches:
                summed += getattr(batch, view)
            assert getattr(result, pooled).tobytes() == (
                summed / result.measured_time).tobytes()


class TestAcrossThePool:
    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_fanned_out_batches_are_the_serial_ones_bitwise(self, engine):
        config = ShardConfig(
            topology=ring(6),
            workload=ItemWorkload.zipf(12, 6, np.linspace(0.2, 0.8, 12)),
            read_quorums=np.resize([2, 3], 12),
            mean_time_to_failure=30.0, mean_time_to_repair=5.0,
            warmup_accesses=50.0, accesses_per_batch=600.0, n_batches=3, seed=9,
        )
        serial = run_sharded(config, engine=engine)
        fanned = run_sharded(config, engine=engine, n_workers=2)
        assert len(fanned.batches) == len(serial.batches) == 3
        for a, b in zip(fanned.batches, serial.batches):
            assert _same_fields(a, b)
            for name in PER_ITEM_VIEWS:
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
