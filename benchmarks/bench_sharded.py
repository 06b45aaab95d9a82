"""SHARD: vectorized multi-item engine vs the per-item reference loop.

The sharded engine's pitch (DESIGN.md §14): one component labelling per
network state, accounted once per ``(votes, q_r)`` quorum class (here
all 10^4 items are one) and settled on the sampled access cells. The
retained reference evaluates the same epochs with one tracker and one
protocol object per item, so at 10^4 items the
vectorized path must win by a wide margin *while staying bitwise equal*.

Claims gated here:

- **Speed**: >= 200x over the reference loop at 10^4 items. Both engines
  replay the identical epoch sequence from the same ``sample_epoch``,
  which costs ``O(sites + accesses)`` an epoch; only the reference also
  densifies it into ``(items, sites)`` grids for its per-item loop.
  1 113–1 239x measured over five one-round runs (reference 5.3–5.9 s,
  vectorized 4–5 ms, 2-core x86-64 container). While both engines drew
  a joint multinomial over the 160 000-cell grid (≈ 5 ms an epoch) the
  ratio was capped at 37–51x and the gate was 20x.
- **Equality**: the timed runs' pooled counters, survivability times,
  and density tables are bitwise identical.
- **Fan-out**: a 4-worker pool run matches the serial run bitwise.
- **Result size**: a 10^4-item batch result keeps SURV time and the time
  density per quorum class (one, here) and the access density as the
  cells it touched, so its pickle beyond the five per-item int64
  vectors (the four access counts and ``class_of``, 40 B an item, 391
  KiB) is at most 64 KiB: 14.3 KiB measured, against 2 735 KiB while it
  held two ``(items, votes)`` float64 tables and two per-item SURV
  vectors.
"""

import pickle
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from conftest import _BENCH_JSON, timed
from repro.sharding import ItemWorkload, ShardConfig, run_sharded
from repro.topology.generators import ring

N_ITEMS = 10_000
#: Alpha classes tiled over the item space: 10^4 items, 8 optimizer-class
#: signatures — the regime the per-class grouping is built for.
ALPHA_CLASSES = (0.05, 0.2, 0.35, 0.5, 0.6, 0.75, 0.9, 1.0)

#: Bytes an item adds to a batch result: four int64 counts and ``class_of``.
PER_ITEM_BYTES = 5 * 8
#: What a batch result may pickle to beyond its per-item vectors.
RESULT_BUDGET = 64 * 1024

_STATE = {}


def _config(n_batches=1, accesses=1_200.0):
    topology = ring(16)
    alphas = np.resize(np.asarray(ALPHA_CLASSES), N_ITEMS)
    workload = ItemWorkload.zipf(
        N_ITEMS, topology.n_sites, alphas, exponent=1.0
    )
    return ShardConfig(
        topology=topology,
        workload=workload,
        mean_time_to_failure=240.0,
        mean_time_to_repair=40.0,
        warmup_accesses=0.0,
        accesses_per_batch=accesses,
        n_batches=n_batches,
        seed=0,
    )


def test_reference_loop(benchmark, report):
    config = _config()
    result = timed(benchmark, lambda: run_sharded(config, engine="reference"))
    _STATE["reference_mean"] = benchmark.stats.stats.mean
    _STATE["reference_result"] = result
    report(f"=== SHARD: per-item reference loop, {N_ITEMS} items ===\n"
           f"  ACC {result.availability:.4f}, "
           f"{result.batches[0].n_epochs} epochs, "
           f"mean {benchmark.stats.stats.mean * 1e3:.0f}ms")


def test_vectorized_engine(benchmark, report):
    config = _config()
    result = timed(benchmark, lambda: run_sharded(config, engine="vectorized"))
    _STATE["vectorized_mean"] = benchmark.stats.stats.mean
    _STATE["quorum_classes"] = result.n_classes
    _STATE["vectorized_result"] = result
    assert result.bitwise_equal(_STATE["reference_result"])
    report(f"=== SHARD: vectorized engine, {N_ITEMS} items ===\n"
           f"  bitwise identical to the reference loop, "
           f"mean {benchmark.stats.stats.mean * 1e3:.0f}ms")


def test_parallel_fanout_bitwise(benchmark, report):
    config = _config(n_batches=4, accesses=600.0)
    serial = run_sharded(config, engine="vectorized")
    fanned = timed(benchmark, lambda: run_sharded(
        config, engine="vectorized", n_workers=4))
    assert fanned.bitwise_equal(serial)
    report(f"=== SHARD: 4-worker fan-out, {N_ITEMS} items x 4 batches ===\n"
           f"  bitwise identical to serial, "
           f"mean {benchmark.stats.stats.mean * 1e3:.0f}ms")


def test_batch_result_is_per_class(report):
    batch = _STATE["vectorized_result"].batches[0]
    pickled = len(pickle.dumps(batch))
    beyond = pickled - PER_ITEM_BYTES * N_ITEMS
    _STATE["result_bytes"] = pickled
    report(f"=== SHARD: one batch result, {N_ITEMS} items ===\n"
           f"  pickled {pickled / 1024:.1f} KiB: {beyond / 1024:.1f} KiB beyond "
           f"the per-item vectors (budget {RESULT_BUDGET // 1024} KiB), "
           f"{batch.access_cells.size} access cells")
    assert beyond <= RESULT_BUDGET, (
        f"a batch result pickles to {beyond} B beyond its per-item vectors")


def test_sharded_summary(report):
    speedup = _STATE["reference_mean"] / _STATE["vectorized_mean"]
    _BENCH_JSON.setdefault("sharded", []).append({
        "test": "sharded_summary",
        "n_items": N_ITEMS,
        "alpha_classes": len(ALPHA_CLASSES),
        "quorum_classes": _STATE["quorum_classes"],
        "reference_mean_s": round(_STATE["reference_mean"], 4),
        "vectorized_mean_s": round(_STATE["vectorized_mean"], 4),
        "speedup": round(speedup, 2),
        "bitwise_identical": True,
        "batch_result_bytes": _STATE["result_bytes"],
    })
    report(
        "=== SHARD: summary ===\n"
        f"  items / alpha classes: {N_ITEMS} / {len(ALPHA_CLASSES)}\n"
        f"  quorum classes       : {_STATE['quorum_classes']}\n"
        f"  reference loop mean  : {_STATE['reference_mean'] * 1e3:.0f}ms\n"
        f"  vectorized mean      : {_STATE['vectorized_mean'] * 1e3:.0f}ms\n"
        f"  speedup              : {speedup:.1f}x"
    )
    assert speedup >= 200.0, (
        f"vectorized engine only {speedup:.1f}x over the reference loop")
