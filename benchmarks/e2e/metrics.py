"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root mirrors these tables (the smoke
test asserts it); ``compare.py`` takes the regression bounds from there.
Plain data only: the launcher imports this before any heavy module.
"""

from __future__ import annotations

__all__ = ["WORKLOAD_NAMES", "END_TO_END", "PER_LAYER"]

WORKLOAD_NAMES = ("figs-sparse", "figs-dense", "analytic-optimize", "serve-shard")

#: ``name -> (unit, better)``; every one is defined on every workload.
END_TO_END = {
    "pass_s": ("s", "lower"),
    "work_per_s": ("work/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: ``name -> (unit, better)``; a layer a workload never enters reads 0.
PER_LAYER = {
    "topology.build_s": ("s", "lower"),
    "faults.schedule.build_s": ("s", "lower"),
    "sharding.workload.build_s": ("s", "lower"),
    "experiments.figures.busy_s": ("s", "lower"),
    "simulation.runner.busy_s": ("s", "lower"),
    "simulation.engine.busy_s": ("s", "lower"),
    "simulation.engine.self_s": ("s", "lower"),
    "simulation.events.busy_s": ("s", "lower"),
    "simulation.events.count": ("count", "lower"),
    "simulation.events.per_s": ("1/s", "higher"),
    "connectivity.tracker.busy_s": ("s", "lower"),
    "connectivity.tracker.refreshes": ("count", "lower"),
    "connectivity.tracker.incremental_ratio": ("ratio", "higher"),
    "connectivity.tracker.us_per_event": ("us", "lower"),
    "connectivity.relabel.busy_s": ("s", "lower"),
    "connectivity.relabel.us_per_state": ("us", "lower"),
    "protocols.grant.busy_s": ("s", "lower"),
    "simulation.workload.busy_s": ("s", "lower"),
    "protocols.estimator.busy_s": ("s", "lower"),
    "quorum.availability.busy_s": ("s", "lower"),
    "quorum.optimizer.busy_s": ("s", "lower"),
    "quorum.optimizer.calls": ("count", "lower"),
    "experiments.tables.busy_s": ("s", "lower"),
    "experiments.sweeps.busy_s": ("s", "lower"),
    "analytic.enumeration.busy_s": ("s", "lower"),
    "analytic.enumeration.states_per_s": ("1/s", "higher"),
    "analytic.montecarlo.busy_s": ("s", "lower"),
    "analytic.montecarlo.samples_per_s": ("1/s", "higher"),
    "analytic.variance.busy_s": ("s", "lower"),
    "analytic.variance.samples_per_s": ("1/s", "higher"),
    "analytic.closed_form.busy_s": ("s", "lower"),
    "analytic.cache.lookups": ("count", "lower"),
    "analytic.cache.hit_ratio": ("ratio", "higher"),
    "quorum.vote_optimizer.busy_s": ("s", "lower"),
    "quorum.vote_optimizer.candidates_per_s": ("1/s", "higher"),
    "serving.service.busy_s": ("s", "lower"),
    "serving.service.requests_per_s": ("1/s", "higher"),
    "serving.retries": ("count", "lower"),
    "serving.shed": ("count", "lower"),
    "serving.breaker_trips": ("count", "lower"),
    "serving.reassignments": ("count", "higher"),
    "serving.denied_ratio": ("ratio", "lower"),
    "sharding.engine.busy_s": ("s", "lower"),
    "sharding.engine.item_epochs_per_s": ("1/s", "higher"),
    "sharding.optimizer.busy_s": ("s", "lower"),
    "sharding.optimizer.group_ratio": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "result.err": ("abs", "lower"),
}
