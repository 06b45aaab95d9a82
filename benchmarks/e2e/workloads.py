"""The four benchmark workloads.

Each workload is a class with the same six steps:

``sizes(quick)``   every size knob, as plain data (lands in the manifest);
``build``          set-up: all inputs, from the seed (timed as ``setup_s``);
``run_pass``       one pass over the program's public functions;
``digest``         sha256 over a pass's counters and density arrays;
``summarize``      layer counters and ``result_err`` of a pass (oracle runs
                   included, so it is called once, outside the timing);
``checks``         correctness checks on a finished pass.

The harness passes **no** ``backend=``, ``engine=``, ``scoring=``,
``method=``, ``transport=``, ``chunk_size=`` or ``n_workers=`` argument, so
every pass runs whatever the production default resolves to. The one
exception is the 200-item ``engine="reference"`` oracle run in the
``serve-shard`` checks, which is outside the timing.

Work units (``work_per_s``) are computed from the sizes alone, never from
what the program reports.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.analytic import cache as density_cache
from repro.analytic import closed_form_density
from repro.analytic.enumeration import enumerate_density_matrix
from repro.analytic.montecarlo import montecarlo_density_matrix
from repro.analytic.variance import stratified_density_matrix
from repro.errors import OptimizationError
from repro.experiments.figures import FigureData, figure_data
from repro.experiments.paper import PAPER_ALPHAS, PAPER_RELIABILITY, ExperimentScale
from repro.experiments.sweeps import find_majority_crossover, reliability_sweep
from repro.experiments.tables import read_write_ratio_table, write_constraint_table
from repro.quorum.assignment import QuorumAssignment
from repro.quorum.availability import AvailabilityModel
from repro.quorum.constraints import feasible_read_quorums, optimize_with_write_floor
from repro.quorum.optimizer import optimal_read_quorum
from repro.quorum.vote_optimizer import optimize_votes
from repro.serving import ServeConfig, run_serve, serving_schedule
from repro.sharding import ItemWorkload, ShardConfig, optimize_shards, run_sharded
from repro.simulation.workload import AccessWorkload
from repro.topology.generators import (
    bus,
    fully_connected,
    paper_topology,
    ring,
    ring_with_chords,
)

__all__ = ["WORKLOADS", "Check"]

#: ``(name, passed, detail)``.
Check = Tuple[str, bool, str]

P = R = PAPER_RELIABILITY

#: ``A(alpha, 1) = .96 alpha + (1 - alpha) W(T)``. The write term needs every
#: site up at once (``.96^101`` in expectation, but 0 or several percent in
#: any one short run), so the check takes it from the alpha=0 curve and
#: tests what is left: the read term, i.e. P(site up) = .96.
ROWA_TOLERANCE = 0.03
#: TAB-WC: how much better than the smallest feasible ``q_r`` the constrained
#: optimum may be and still count as "the smallest feasible one".
WC_TIE_TOLERANCE = 0.005
#: The paper's "most striking observation": curves meet at ``floor(T/2)``.
CONVERGENCE_SPREAD = 0.08
#: ``result_err`` limits at the benchmark's volume. ``figs-dense`` has none: near
#: ``q_w`` = (sites up) the complete graph's write availability is a step
#: that one short batch samples about once, so its error is recorded only.
SIMULATION_ERR_LIMIT = 0.10
SAMPLING_ERR_LIMIT = 0.02
#: ``--quick`` runs a tenth of the volume, so every statistical tolerance
#: above is this many times wider there.
QUICK_SLACK = 10.0


def _tolerance(value: float, quick: bool) -> float:
    return value * QUICK_SLACK if quick else value


def _digest(parts: Iterable) -> str:
    """sha256 over counters (by ``repr``) and arrays (by their bytes)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _sim_work(scales: Iterable[dict]) -> float:
    """Simulated accesses requested: (warm-up + batch) x batches per figure."""
    return float(sum(
        (s["warmup_accesses"] + s["accesses_per_batch"]) * s["n_batches"]
        for s in scales
    ))


# ----------------------------------------------------------------------
# Figures: shared pieces of figs-sparse and figs-dense
# ----------------------------------------------------------------------

def _build_figure_config(tracer, chords: int, scale: ExperimentScale, seed: int):
    with tracer.span("topology.build"):
        topology = paper_topology(chords, n_sites=scale.n_sites)
    # Exactly the config figure_data(chords=..., scale=..., seed=...) builds,
    # built here so that the 5 050-link graph is set-up, not pass time.
    return scale.config(chords, alpha=0.5, seed=seed, topology=topology)


def _figure_parts(fd: FigureData) -> Iterable:
    for b in fd.result.batches:
        yield (b.reads_submitted, b.reads_granted, b.writes_submitted,
               b.writes_granted, b.surv_read, b.surv_write, b.n_epochs, b.n_events)
    yield fd.result.density_matrix("time")
    for series in fd.series:
        yield series.availability


def _figure_checks(fd: FigureData, quick: bool) -> List[Check]:
    name = fd.topology_name
    write_term = fd.curve(0.0).availability[0]
    rowa = max(abs(s.availability[0] - (1.0 - s.alpha) * write_term - P * s.alpha)
               for s in fd.series)
    writes = np.diff(fd.curve(0.0).availability)
    reads = np.diff(fd.curve(1.0).availability)
    return [
        (f"{name}: A(alpha,1) - (1-alpha) W(T) = .96 alpha",
         rowa <= _tolerance(ROWA_TOLERANCE, quick),
         f"max deviation {rowa:.4f}"),
        (f"{name}: curves converge at floor(T/2)",
         fd.convergence_spread < _tolerance(CONVERGENCE_SPREAD, quick),
         f"spread {fd.convergence_spread:.4f}"),
        (f"{name}: alpha=0 curve non-decreasing", bool((writes >= -1e-12).all()),
         f"min step {writes.min():.3g}"),
        (f"{name}: alpha=1 curve non-increasing", bool((reads <= 1e-12).all()),
         f"max step {reads.max():.3g}"),
    ]


def _closed_form_err(fd: FigureData, family: str) -> float:
    """max over alpha x q_r of |A_sim - A_closed-form|."""
    row = closed_form_density(family, fd.model.total_votes, P, R)
    exact = AvailabilityModel(row, row)
    return float(max(
        np.abs(s.availability - exact.curve(s.alpha)).max() for s in fd.series
    ))


def _err_check(err: float, limit: float, quick: bool) -> Check:
    limit = _tolerance(limit, quick)
    return ("result_err within limit", bool(np.isfinite(err) and err <= limit),
            f"{err:.4g} <= {limit}")


class FigsSparse:
    """Figures 2-6 + TAB-WC + TAB-RW on sparse 101-site rings: time is spread
    over the tracker, per-epoch accounting and the event loop."""

    name = "figs-sparse"

    WRITE_FLOORS = (0.0, 0.05, 0.1, 0.2, 0.3)
    WC_TOPOLOGY = 2  # index into chords: the paper's worked example
    WC_ALPHA = 0.75

    @staticmethod
    def sizes(quick: bool) -> dict:
        scale = dict(name="e2e-sparse", n_sites=101, warmup_accesses=3_000.0,
                     accesses_per_batch=27_000.0, n_batches=4)
        if quick:
            scale.update(accesses_per_batch=9_000.0, n_batches=1)
        return {"chords": [0, 1, 2, 4, 16], "scale": scale}

    @staticmethod
    def work(sizes: dict) -> float:
        return _sim_work([sizes["scale"]] * len(sizes["chords"]))

    @staticmethod
    def build(seed: int, sizes: dict, tracer) -> dict:
        scale = ExperimentScale(**sizes["scale"])
        return {"configs": [
            _build_figure_config(tracer, c, scale, seed + c) for c in sizes["chords"]
        ]}

    def run_pass(self, inputs: dict, tracer) -> dict:
        figures = []
        for config in inputs["configs"]:
            with tracer.span("experiments.figures"):
                figures.append(figure_data(config=config))
        models = [(fd.topology_name, fd.model) for fd in figures]
        with tracer.span("experiments.tables"):
            wc = write_constraint_table(
                models[self.WC_TOPOLOGY][1], self.WC_ALPHA, self.WRITE_FLOORS)
            rw = read_write_ratio_table(models, PAPER_ALPHAS)
        return {"figures": figures, "wc": wc, "rw": rw}

    @staticmethod
    def digest(out: dict) -> str:
        parts = [p for fd in out["figures"] for p in _figure_parts(fd)]
        return _digest(parts + [out["wc"], out["rw"]])

    @staticmethod
    def summarize(inputs: dict, out: dict) -> dict:
        return {"result_err": _closed_form_err(out["figures"][0], "ring"),
                "counters": {}}

    def checks(self, inputs: dict, out: dict, summary: dict, quick: bool) -> List[Check]:
        checks = [c for fd in out["figures"] for c in _figure_checks(fd, quick)]
        model = out["figures"][self.WC_TOPOLOGY].model
        # On this sparse topology A(.75, q_r) falls with q_r, so each floor's
        # optimum is the smallest q_r that meets it (or ties it within noise).
        gaps = []
        for row in out["wc"]:
            if row.feasible:
                smallest = int(feasible_read_quorums(model, row.write_floor).min())
                gaps.append(row.availability
                            - float(model.availability(self.WC_ALPHA, smallest)))
        checks.append((
            "TAB-WC: constrained optimum = smallest feasible q_r",
            max(gaps) <= _tolerance(WC_TIE_TOLERANCE, quick),
            " ".join(f"{r.write_floor:g}->{r.read_quorum}" for r in out["wc"])
            + f", max gain over smallest {max(gaps):.4f}",
        ))
        checks.append(_err_check(summary["result_err"], SIMULATION_ERR_LIMIT, quick))
        return checks


class FigsDense:
    """Figure 7 + the fully connected topology: most of the pass is the
    incremental ``ComponentTracker`` over 5 050 links; accounting barely shows."""

    name = "figs-dense"

    @staticmethod
    def sizes(quick: bool) -> dict:
        fig7 = dict(name="e2e-256", n_sites=101, warmup_accesses=3_000.0,
                    accesses_per_batch=12_000.0, n_batches=2)
        complete = dict(name="e2e-fc", n_sites=101, warmup_accesses=500.0,
                        accesses_per_batch=3_500.0, n_batches=1,
                        initial_state="stationary")
        if quick:
            fig7.update(warmup_accesses=1_000.0, accesses_per_batch=2_000.0,
                        n_batches=1)
            complete.update(warmup_accesses=100.0, accesses_per_batch=300.0)
        return {"figures": [{"chords": 256, "scale": fig7},
                            {"chords": 4949, "scale": complete}]}

    @staticmethod
    def work(sizes: dict) -> float:
        return _sim_work(f["scale"] for f in sizes["figures"])

    @staticmethod
    def build(seed: int, sizes: dict, tracer) -> dict:
        return {"configs": [
            _build_figure_config(
                tracer, f["chords"], ExperimentScale(**f["scale"]), seed + i)
            for i, f in enumerate(sizes["figures"])
        ]}

    @staticmethod
    def run_pass(inputs: dict, tracer) -> dict:
        figures = []
        for config in inputs["configs"]:
            with tracer.span("experiments.figures"):
                figures.append(figure_data(config=config))
        return {"figures": figures}

    @staticmethod
    def digest(out: dict) -> str:
        return _digest(p for fd in out["figures"] for p in _figure_parts(fd))

    @staticmethod
    def summarize(inputs: dict, out: dict) -> dict:
        return {"result_err": _closed_form_err(out["figures"][1], "complete"),
                "counters": {}}

    @staticmethod
    def checks(inputs: dict, out: dict, summary: dict, quick: bool) -> List[Check]:
        return [c for fd in out["figures"] for c in _figure_checks(fd, quick)]


# ----------------------------------------------------------------------
# analytic-optimize: the paper's own algorithm, no simulator at all
# ----------------------------------------------------------------------

class AnalyticOptimize:
    """Fig. 1 optimizer, closed forms, exact enumeration, sampling and vote
    search with no simulator: a simulator or tracker change must not move it."""

    name = "analytic-optimize"

    VOTE_SITE_RELIABILITY = (0.95, 0.95, 0.55, 0.95)
    VOTE_LINK_RELIABILITY = 0.85
    WRITE_FLOOR = 0.05
    SWEEP_FAMILIES = ("ring", "complete")  # sweeps know no bus family
    MODEL_FAMILIES = ("ring", "complete", "bus")

    @staticmethod
    def sizes(quick: bool) -> dict:
        sizes = {
            "enum_ring": 14, "enum_paper_sites": 12, "enum_complete": 7,
            "mc_sparse_samples": 50_000, "mc_complete_samples": 1_000,
            "stratified_samples": 25_000, "vote_samples": 1_000,
            "vote_ring": 16, "sweep_sites": 101, "sweep_reliabilities": 41,
            "err_samples": 20_000,
        }
        if quick:
            sizes.update(
                enum_ring=10, enum_paper_sites=8, enum_complete=5,
                mc_sparse_samples=5_000, mc_complete_samples=100,
                stratified_samples=2_500, vote_samples=100,
                sweep_reliabilities=5, err_samples=2_000,
            )
        return sizes

    @staticmethod
    def _enum_states(sizes: dict) -> float:
        ring_c = 2 * sizes["enum_ring"]
        paper_c = 2 * sizes["enum_paper_sites"] + 2
        m = sizes["enum_complete"]
        return float(2 ** ring_c + 2 ** paper_c + 2 ** (m + m * (m - 1) // 2))

    @staticmethod
    def _mc_samples(sizes: dict) -> float:
        return float(sizes["mc_sparse_samples"] + sizes["mc_complete_samples"])

    def work(self, sizes: dict) -> float:
        return (self._enum_states(sizes) + self._mc_samples(sizes)
                + sizes["stratified_samples"] + sizes["vote_samples"])

    def build(self, seed: int, sizes: dict, tracer) -> dict:
        with tracer.span("topology.build"):
            topologies = {
                "enum": [
                    ring(sizes["enum_ring"]),
                    paper_topology(2, n_sites=sizes["enum_paper_sites"]),
                    fully_connected(sizes["enum_complete"]),
                ],
                "sparse": paper_topology(16),
                "complete": paper_topology(4949),
                "vote_ring": ring(sizes["vote_ring"]),
            }
        vote_p = np.resize(np.asarray(self.VOTE_SITE_RELIABILITY), sizes["vote_ring"])
        return {
            "seed": seed, "sizes": sizes, "topologies": topologies, "vote_p": vote_p,
            "reliabilities": np.linspace(0.5, 0.999, sizes["sweep_reliabilities"]),
        }

    def run_pass(self, inputs: dict, tracer) -> dict:
        sizes, seed, topo = inputs["sizes"], inputs["seed"], inputs["topologies"]
        # First half: real kernel runs, so a cached density cannot stand in.
        with density_cache.disabled():
            exact = []
            for topology in topo["enum"]:
                with tracer.span("analytic.enumeration"):
                    exact.append(enumerate_density_matrix(topology, P, R))
            with tracer.span("analytic.montecarlo"):
                sampled = [
                    montecarlo_density_matrix(
                        topo["sparse"], P, R,
                        n_samples=sizes["mc_sparse_samples"], seed=seed),
                    montecarlo_density_matrix(
                        topo["complete"], P, R,
                        n_samples=sizes["mc_complete_samples"], seed=seed + 1),
                ]
            with tracer.span("analytic.variance"):
                stratified = stratified_density_matrix(
                    topo["sparse"], P, R,
                    n_samples=sizes["stratified_samples"], seed=seed + 2)
            with tracer.span("quorum.vote_optimizer"):
                votes = optimize_votes(
                    topo["vote_ring"], 0.5, inputs["vote_p"],
                    self.VOTE_LINK_RELIABILITY,
                    n_samples=sizes["vote_samples"], seed=seed + 3)

        # Second half: cache on, cold at pass start, so the hit ratio is
        # the sweeps' own re-use and not a previous pass's.
        density_cache.get_cache().clear()
        n = sizes["sweep_sites"]
        sweeps, crossovers = [], []
        for family in self.SWEEP_FAMILIES:
            for alpha in PAPER_ALPHAS:
                with tracer.span("experiments.sweeps"):
                    sweeps.append(reliability_sweep(
                        family, n, alpha, inputs["reliabilities"]))
                    crossovers.append(find_majority_crossover(family, n, alpha))
        models = [AvailabilityModel.from_density_matrix(m)
                  for m in exact + sampled + [stratified]]
        for family in self.MODEL_FAMILIES:
            with tracer.span("analytic.closed_form"):
                row = closed_form_density(family, n, P, R)
            models.append(AvailabilityModel(row, row))
        optima = []
        for model in models:
            for alpha in PAPER_ALPHAS:
                with tracer.span("quorum.optimizer"):
                    best = optimal_read_quorum(model, alpha)
                    try:
                        floored = optimize_with_write_floor(
                            model, alpha, self.WRITE_FLOOR).read_quorum
                    except OptimizationError:
                        floored = None  # the floor is out of reach: a result
                optima.append((best.read_quorum, best.availability, floored))
        stats = density_cache.stats()
        return {
            "exact": exact, "sampled": sampled, "stratified": stratified,
            "votes": votes, "sweeps": sweeps, "crossovers": crossovers,
            "optima": optima, "cache": (stats.hits, stats.misses),
        }

    @staticmethod
    def digest(out: dict) -> str:
        parts = out["exact"] + out["sampled"] + [out["stratified"]]
        parts += [out["votes"].votes, out["votes"].availability,
                  out["sweeps"], out["crossovers"], out["optima"], out["cache"]]
        return _digest(parts)

    def summarize(self, inputs: dict, out: dict) -> dict:
        sizes, seed = inputs["sizes"], inputs["seed"]
        with density_cache.disabled():
            estimate = stratified_density_matrix(
                inputs["topologies"]["enum"][1], P, R,
                n_samples=sizes["err_samples"], seed=seed + 4)
        hits, misses = out["cache"]
        return {
            "result_err": float(np.abs(estimate - out["exact"][1]).max()),
            "counters": {
                "enum_states": self._enum_states(sizes),
                "mc_samples": self._mc_samples(sizes),
                "stratified_samples": float(sizes["stratified_samples"]),
                "vote_candidates": out["votes"].candidates_evaluated,
                "cache_hits": hits, "cache_misses": misses,
            },
        }

    @staticmethod
    def checks(inputs: dict, out: dict, summary: dict, quick: bool) -> List[Check]:
        p, r = 0.9, 0.8
        hub_sites, hub_topology = 5, bus(5)
        hub_p = np.full(hub_sites + 1, p)
        hub_p[hub_sites] = r  # the zero-vote hub plays the bus
        cases = [
            ("ring", 6, ring(6), p, r),
            ("complete", 5, fully_connected(5), p, r),
            ("bus", hub_sites, hub_topology, hub_p, np.ones(hub_topology.n_links)),
        ]
        checks = []
        with density_cache.disabled():
            for family, n, topology, site_rel, link_rel in cases:
                exact = enumerate_density_matrix(topology, site_rel, link_rel)[0]
                gap = float(np.abs(closed_form_density(family, n, p, r) - exact).max())
                checks.append((f"closed form = enumeration ({family}-{n})",
                               gap <= 1e-9, f"max gap {gap:.3g}"))
        mass = max(float(np.abs(m.sum(axis=1) - 1.0).max()) for m in out["exact"])
        checks.append(("enumerated rows are densities", mass <= 1e-9,
                       f"max |sum - 1| {mass:.3g}"))
        checks.append(_err_check(summary["result_err"], SAMPLING_ERR_LIMIT, quick))
        return checks


# ----------------------------------------------------------------------
# serve-shard: the same layers behind the two front ends
# ----------------------------------------------------------------------

class ServeShard:
    """Request-at-a-time serving with retries, breakers and QR reassignment,
    then 10^4 items on one labelling: the front ends a batch-simulator
    speed-up must not cost."""

    name = "serve-shard"

    SERVE_ALPHA = 0.7
    SCENARIO = "correlated"
    MTTF, MTTR = 240.0, 40.0

    @staticmethod
    def sizes(quick: bool) -> dict:
        sizes = {
            "serve_sites": 13, "serve_chords": 2, "requests": 20_000, "clients": 2,
            "shard_sites": 16, "items": 10_000, "alpha_classes": 8,
            "shard_batches": 4, "shard_accesses": 1_000.0, "shard_warmup": 250.0,
            "oracle_items": 200,
        }
        if quick:
            # 5 000 requests is the least that crosses the estimator's
            # observation window and still sees a reassignment.
            sizes.update(requests=5_000, items=1_000, shard_accesses=250.0,
                         shard_warmup=60.0, oracle_items=50)
        return sizes

    @staticmethod
    def work(sizes: dict) -> float:
        return float(sizes["requests"] + sizes["shard_batches"]
                     * (sizes["shard_accesses"] + sizes["shard_warmup"]))

    def _shard_config(self, topology, alphas, n_items, sizes, seed, tracer):
        with tracer.span("sharding.workload.build"):
            workload = ItemWorkload.zipf(n_items, topology.n_sites, alphas[:n_items])
        return ShardConfig(
            topology=topology, workload=workload,
            mean_time_to_failure=self.MTTF, mean_time_to_repair=self.MTTR,
            warmup_accesses=sizes["shard_warmup"],
            accesses_per_batch=sizes["shard_accesses"],
            n_batches=sizes["shard_batches"], seed=seed,
        )

    def build(self, seed: int, sizes: dict, tracer) -> dict:
        with tracer.span("topology.build"):
            serve_topology = ring_with_chords(sizes["serve_sites"], sizes["serve_chords"])
            shard_topology = ring(sizes["shard_sites"])
        serve = ServeConfig(
            topology=serve_topology,
            workload=AccessWorkload.uniform(sizes["serve_sites"], self.SERVE_ALPHA),
            initial_assignment=QuorumAssignment.from_read_quorum(
                serve_topology.total_votes, 1),
            n_requests=sizes["requests"], n_clients=sizes["clients"],
            seed=seed, scenario=self.SCENARIO,
        )
        with tracer.span("faults.schedule.build"):
            serve.fault_schedule = serving_schedule(
                self.SCENARIO, serve_topology, serve.horizon)
        alphas = np.resize(
            np.linspace(0.05, 0.95, sizes["alpha_classes"]), sizes["items"])
        return {
            "seed": seed, "sizes": sizes, "serve": serve, "alphas": alphas,
            "shard_topology": shard_topology,
            "shard": self._shard_config(
                shard_topology, alphas, sizes["items"], sizes, seed, tracer),
            "oracle": self._shard_config(
                shard_topology, alphas, sizes["oracle_items"], sizes, seed, tracer),
        }

    def run_pass(self, inputs: dict, tracer) -> dict:
        reliability = self.MTTF / (self.MTTF + self.MTTR)
        with tracer.span("serving.service"):
            report = run_serve(inputs["serve"])
        with tracer.span("sharding.engine"):
            sharded = run_sharded(inputs["shard"])
        with tracer.span("sharding.optimizer"):
            plan = optimize_shards(
                inputs["shard_topology"], inputs["alphas"], reliability, reliability,
                seed=inputs["seed"])
        return {"report": report, "sharded": sharded, "plan": plan}

    @staticmethod
    def digest(out: dict) -> str:
        report, sharded, plan = out["report"], out["sharded"], out["plan"]
        return _digest([
            report.digest(), sharded.reads_submitted, sharded.reads_granted,
            sharded.writes_submitted, sharded.writes_granted,
            sharded.density_time(), plan.read_quorums, plan.availabilities,
        ])

    @staticmethod
    def summarize(inputs: dict, out: dict) -> dict:
        report, sharded, plan = out["report"], out["sharded"], out["plan"]
        audit = report.audit_totals
        audit_total = sum(audit.values())
        audit_acc = (
            sum(v for (_, reason), v in audit.items() if reason == "granted")
            / audit_total if audit_total else 0.0
        )
        vectorized = run_sharded(inputs["oracle"])
        reference = run_sharded(inputs["oracle"], engine="reference")
        item_gap = float(np.abs(
            vectorized.item_availability - reference.item_availability).max())
        return {
            "result_err": max(abs(report.attempt_availability - audit_acc), item_gap),
            "oracle_bitwise": vectorized.bitwise_equal(reference),
            "counters": {
                "requests": report.n_requests,
                "retries": report.retries_scheduled,
                "shed": report.shed,
                "breaker_trips": report.breaker_trips,
                "reassignments": len(report.reassignments),
                "denied_ratio": 1.0 - report.attempt_availability,
                "item_epochs": inputs["shard"].n_items
                * sum(b.n_epochs for b in sharded.batches),
                "group_ratio": plan.optimizations_run / plan.n_items,
            },
        }

    @staticmethod
    def checks(inputs: dict, out: dict, summary: dict, quick: bool) -> List[Check]:
        report = out["report"]
        return [
            ("run_serve exit 0", report.exit_code == 0, f"exit {report.exit_code}"),
            ("run_serve zero violations", not report.violations and not report.aborted,
             f"{len(report.violations)} violations"),
            ("run_serve audit reconciled", report.reconciled,
             "; ".join(report.reconciliation_failures()) or "exact"),
            ("run_serve reassigned at least once", len(report.reassignments) >= 1,
             f"{len(report.reassignments)} reassignments"),
            ("sharded engine bitwise_equal to reference", summary["oracle_bitwise"],
             f"{inputs['sizes']['oracle_items']}-item side run"),
            ("result_err is exactly 0", summary["result_err"] == 0.0,
             repr(summary["result_err"])),
        ]


WORKLOADS: Dict[str, object] = {
    w.name: w for w in (FigsSparse(), FigsDense(), AnalyticOptimize(), ServeShard())
}
