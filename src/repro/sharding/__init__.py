"""Sharded multi-item simulation: N items, one network, no Python loops.

The package generalizes the paper's single replicated item to the
multi-tenant workload the ROADMAP's north star describes: ``(n_items,
n_sites)`` vote matrices, ``(n_items,)`` read-quorum vectors, Zipf- or
hotspot-skewed item access, and per-shard quorum optimization grouped by
``(alpha, votes)`` workload class. See DESIGN.md §14.

- :mod:`repro.sharding.workload` — the (item, site) access sampler;
- :mod:`repro.sharding.config` — :class:`ShardConfig`;
- :mod:`repro.sharding.engine` — the vectorized engine and the per-item
  reference loop it matches bitwise;
- :mod:`repro.sharding.optimizer` — per-class quorum optimization;
- :mod:`repro.sharding.runner` — batch fan-out (bitwise for any
  ``--workers``).
"""

from repro.sharding.config import ShardConfig
from repro.sharding.engine import (
    ReferenceShardEngine,
    ShardBatchResult,
    ShardedEngine,
)
from repro.sharding.optimizer import (
    ShardGroup,
    ShardPlan,
    group_items,
    optimize_shards,
)
from repro.sharding.runner import ENGINE_KINDS, ShardRunResult, run_sharded
from repro.sharding.workload import ItemWorkload

__all__ = [
    "ENGINE_KINDS",
    "ItemWorkload",
    "ReferenceShardEngine",
    "ShardBatchResult",
    "ShardConfig",
    "ShardGroup",
    "ShardPlan",
    "ShardRunResult",
    "ShardedEngine",
    "group_items",
    "optimize_shards",
    "run_sharded",
]
