"""Command-line interface: ``python -m repro <command> ...``.

Commands mirror the paper's workflows so the library is usable without
writing Python:

- ``optimize``          — Figure-1 optimal quorum assignment from an
  analytic density (ring / complete / bus / tree), with an optional
  write-availability floor (section 5.4).
- ``simulate``          — run the discrete-event simulator for one
  protocol and print availability with confidence intervals.
- ``figure``            — regenerate one paper figure's series from a
  simulation run (the on-line density technique).
- ``rw-table``          — the section 5.5 read-write-ratio summary over
  several topologies.
- ``write-constraint``  — the section 5.4 floor sweep for one topology.
- ``chaos``             — scripted fault-injection campaign with invariant
  monitoring (DESIGN.md: "Chaos engineering the quorum layer").
- ``serve``             — the adaptive quorum serving layer: an asyncio
  service streaming client accesses against a replicated database while
  a scripted fault scenario runs, with online density estimation driving
  QR reassignments. Exit 0 = clean, 1 = SLO/invariant failure,
  2 = usage error.
- ``metrics``           — re-render a ``--telemetry`` JSONL stream as the
  human report (spans, phases, counters, quorum-decision audit).
- ``profile``           — run a canned workload (enumeration sweep,
  Monte-Carlo estimate, vote search, simulation, serving scenario) under
  a live recorder and export a Perfetto-loadable Chrome trace plus the
  snapshot stream ``repro metrics`` reads, with a phase table and
  critical path printed.
- ``shard``             — the vectorized N-item sharded simulation:
  Zipf/hotspot item skew, per-item vote vectors and read quorums, one
  shared component labelling per network state, optional per-class
  quorum optimization (``--optimize``), bitwise identical for any
  ``--workers``.
- ``verify``            — the differential-verification battery: every
  applicable engine pair, the metamorphic relations, and the golden
  regression corpus. Exit 0 = all checks pass, 1 = divergence,
  2 = configuration error.

``simulate``, ``chaos``, ``serve`` and ``verify`` accept ``--telemetry``
(and ``--telemetry-dir``) to record metrics, spans, phases and the
quorum-decision audit log, exporting a Prometheus text file plus a
JSON-lines stream after the run.

Every command that draws randomness accepts ``--seed`` (a non-negative
integer) for exact reproducibility.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]

_DENSITY_FAMILIES = ("ring", "complete", "bus")
_SCALES = ("test", "small", "paper", "bench")


def _seed(text: str) -> int:
    """The ``--seed`` type: a non-negative integer, else a usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _scale(name: str):
    from repro.experiments.paper import PAPER_SCALE, SMALL_SCALE, TEST_SCALE
    from repro.experiments.paper import ExperimentScale

    if name == "bench":
        return ExperimentScale("bench", 101, 500.0, 12_000.0, 2,
                               initial_state="stationary")
    return {"test": TEST_SCALE, "small": SMALL_SCALE, "paper": PAPER_SCALE}[name]


def _analytic_density(family: str, sites: int, p: float, r: float) -> np.ndarray:
    # Route through the cached dispatcher so repeated CLI invocations of
    # the same operating point inside one process (sweeps, figures)
    # share density work with every other layer.
    from repro.analytic import closed_form_density

    return closed_form_density(family, sites, p, r)


# ----------------------------------------------------------------------
# Telemetry plumbing shared by simulate/chaos/serve/verify
# ----------------------------------------------------------------------

def _add_telemetry_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--telemetry", action="store_true",
                     help="record metrics, spans, and the quorum-decision "
                     "audit log; export Prometheus + JSONL after the run")
    sub.add_argument("--telemetry-dir", default=None, metavar="DIR",
                     help="where to write metrics.prom / events.jsonl "
                     "(implies --telemetry; default: ./telemetry)")


def _telemetry_from_args(args: argparse.Namespace):
    """A live recorder when requested, else the null recorder."""
    from repro.telemetry.recorder import NULL, Telemetry

    return Telemetry() if args.telemetry or args.telemetry_dir else NULL


def _export_telemetry(snapshot, args: argparse.Namespace) -> None:
    """Write the Prometheus + JSONL exports and say where they went."""
    from pathlib import Path

    from repro.telemetry.export import to_prometheus, write_jsonl

    directory = Path(args.telemetry_dir or "telemetry")
    directory.mkdir(parents=True, exist_ok=True)
    prom_path = directory / "metrics.prom"
    prom_path.write_text(to_prometheus(snapshot))
    jsonl_path = write_jsonl(snapshot, directory / "events.jsonl")
    print()
    print(f"telemetry : wrote {prom_path} and {jsonl_path}")
    print(f"telemetry : summarize with `repro metrics {jsonl_path}`")


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------

def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.quorum.availability import AvailabilityModel
    from repro.quorum.constraints import optimize_with_write_floor
    from repro.quorum.optimizer import optimal_read_quorum

    density = _analytic_density(args.family, args.sites, args.p, args.r)
    model = AvailabilityModel(density, density)
    if args.write_floor > 0.0:
        result = optimize_with_write_floor(model, args.alpha, args.write_floor)
    else:
        result = optimal_read_quorum(model, args.alpha)
    write = float(np.asarray(model.write_availability_at(result.read_quorum)))
    print(f"topology        : {args.family}-{args.sites} (p={args.p}, r={args.r})")
    print(f"alpha           : {args.alpha}")
    if args.write_floor > 0:
        print(f"write floor     : {args.write_floor}")
    print(f"optimal quorums : q_r={result.read_quorum}  q_w={result.write_quorum}")
    print(f"availability    : {result.availability:.4f}")
    print(f"write avail.    : {write:.4f}")
    print(f"evaluations     : {result.evaluations}")
    return 0


def _make_protocol(name: str, total_votes: int, read_quorum: Optional[int]):
    from repro.errors import SimulationError
    from repro.protocols.majority import MajorityConsensusProtocol
    from repro.protocols.primary_copy import PrimaryCopyProtocol
    from repro.protocols.quorum_consensus import QuorumConsensusProtocol
    from repro.protocols.read_one_write_all import ReadOneWriteAllProtocol
    from repro.quorum.assignment import QuorumAssignment

    if name == "majority":
        return MajorityConsensusProtocol(total_votes)
    if name == "rowa":
        return ReadOneWriteAllProtocol(total_votes)
    if name == "primary":
        return PrimaryCopyProtocol(0)
    if name == "quorum":
        if read_quorum is None:
            raise SimulationError("--read-quorum is required with --protocol quorum")
        return QuorumConsensusProtocol(
            QuorumAssignment.from_read_quorum(total_votes, read_quorum)
        )
    raise SimulationError(f"unknown protocol {name!r}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation.runner import run_simulation
    from repro.telemetry.recorder import use as _use_telemetry

    scale = _scale(args.scale)
    config = scale.config(args.chords, alpha=args.alpha, seed=args.seed)
    protocol = _make_protocol(args.protocol, config.topology.total_votes,
                              args.read_quorum)
    telemetry = _telemetry_from_args(args)
    # Scope the recorder so un-plumbed layers (the optimizer) see it.
    with _use_telemetry(telemetry):
        result = run_simulation(
            config,
            protocol,
            target_half_width=args.target_half_width,
            fail_fast=not args.keep_going,
            telemetry=telemetry,
            n_workers=args.workers,
        )
    print(result.summary())
    if result.telemetry is not None:
        _export_telemetry(result.telemetry, args)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import figure_data
    from repro.experiments.report import render_figure

    fig = figure_data(chords=args.chords, scale=_scale(args.scale), seed=args.seed)
    if args.chart:
        from repro.experiments.charts import figure_chart

        print(figure_chart(fig))
    else:
        print(render_figure(fig, max_points=args.points))
    return 0


def _cmd_rw_table(args: argparse.Namespace) -> int:
    from repro.experiments.figures import figure_data
    from repro.experiments.paper import PAPER_ALPHAS
    from repro.experiments.report import render_rw_table
    from repro.experiments.tables import read_write_ratio_table

    models = []
    for chords in args.chords:
        fig = figure_data(chords=chords, scale=_scale(args.scale),
                          seed=args.seed + chords)
        models.append((fig.topology_name, fig.model))
    print(render_rw_table(read_write_ratio_table(models, PAPER_ALPHAS)))
    return 0


def _cmd_write_constraint(args: argparse.Namespace) -> int:
    from repro.experiments.figures import figure_data
    from repro.experiments.report import render_write_constraint_table
    from repro.experiments.tables import write_constraint_table

    fig = figure_data(chords=args.chords, scale=_scale(args.scale), seed=args.seed)
    rows = write_constraint_table(fig.model, args.alpha, write_floors=args.floors)
    print(render_write_constraint_table(rows, args.alpha, fig.topology_name))
    return 0


def _cmd_votes(args: argparse.Namespace) -> int:
    from repro.quorum.vote_optimizer import optimize_votes
    from repro.topology.generators import ring_with_chords

    topology = ring_with_chords(args.sites, args.chords)
    p = np.full(args.sites, args.p)
    if args.flaky_every > 0:
        p[:: args.flaky_every] = args.flaky_p
    result = optimize_votes(
        topology,
        alpha=args.alpha,
        p=p,
        r=args.r,
        total_votes=args.total_votes,
        method=args.method,
        n_samples=args.samples,
        seed=args.seed,
    )
    print(f"topology       : {topology.name}")
    print(f"site p         : {p.tolist()}")
    print(f"vote vector    : {list(result.votes)}")
    print(f"quorums        : {result.quorum.assignment}")
    print(f"availability   : {result.availability:.4f}")
    print(f"method         : {result.method} ({result.candidates_evaluated} candidates)")
    return 0


def _cmd_shootout(args: argparse.Namespace) -> int:
    from repro.protocols.dynamic_voting import DynamicVotingProtocol
    from repro.protocols.majority import MajorityConsensusProtocol
    from repro.protocols.primary_copy import PrimaryCopyProtocol
    from repro.protocols.read_one_write_all import ReadOneWriteAllProtocol
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.trace import TraceReplayer
    from repro.topology.generators import paper_topology

    scale = _scale(args.scale)
    limit = scale.n_sites * (scale.n_sites - 3) // 2
    topology = paper_topology(min(args.chords, limit), n_sites=scale.n_sites)
    config = scale.config(args.chords, alpha=args.alpha, seed=args.seed,
                          topology=topology)
    T = topology.total_votes
    engine = SimulationEngine(config, MajorityConsensusProtocol(T), record_trace=True)
    batch = engine.run_batch(0)
    replayer = TraceReplayer(topology, batch.trace)
    print(f"recorded {len(batch.trace)} events over "
          f"{batch.trace.duration():.1f} time units on {topology.name}")
    print(f"time-weighted ACC at alpha = {args.alpha}, same history:")
    contenders = [
        ("majority", MajorityConsensusProtocol(T)),
        ("rowa", ReadOneWriteAllProtocol(T)),
        ("primary-copy", PrimaryCopyProtocol(0)),
        ("dynamic-voting", DynamicVotingProtocol(topology.n_sites)),
    ]
    for name, protocol in contenders:
        acc = replayer.availability_of(protocol, alpha=args.alpha)
        print(f"  {name:<16s} {acc:.4f}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import render_campaign, run_campaign

    result = run_campaign(
        scale=_scale(args.scale),
        seed=args.seed,
        include_fully_connected=args.full,
    )
    print(render_campaign(result))
    return 0


_CHAOS_SCENARIOS = ("partition", "flap", "cascade", "correlated", "mixed")


def _chaos_schedule(scenario: str, n_sites: int, horizon: float):
    """A canned adversarial scenario scaled to the batch horizon."""
    from repro.faults.schedule import (
        CascadingFailure,
        CorrelatedFailure,
        FaultSchedule,
        FlappingSite,
        ScriptedPartition,
    )

    half = list(range(n_sites // 2))
    injectors = {
        # Split half the sites off, merge back, then split differently —
        # the section-2.2 merge/split stressor.
        "partition": [
            ScriptedPartition(0.2 * horizon, [half], heal_at=0.45 * horizon),
            ScriptedPartition(0.55 * horizon, [half[::2]], heal_at=0.8 * horizon),
        ],
        "flap": [
            FlappingSite(0, period=horizon / 10.0, until=0.9 * horizon),
            FlappingSite(1, period=horizon / 7.0, until=0.9 * horizon),
        ],
        "cascade": [
            CascadingFailure(0.2 * horizon, half[:3] or [0],
                             delay=horizon / 20.0, heal_at=0.7 * horizon),
        ],
        "correlated": [
            CorrelatedFailure(sites=[0, 1], mean_interval=horizon / 4.0,
                              until=0.85 * horizon, down_time=horizon / 20.0),
        ],
    }
    injectors["mixed"] = (
        injectors["partition"][:1]
        + [FlappingSite(n_sites - 1, period=horizon / 8.0, until=0.9 * horizon)]
        + [CascadingFailure(0.5 * horizon, [n_sites - 2, n_sites - 3],
                            delay=horizon / 30.0, heal_at=0.85 * horizon)]
    )
    return FaultSchedule(injectors[scenario])


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_chaos_campaign, unchecked_assignment
    from repro.faults.monitor import InvariantMonitor
    from repro.protocols.quorum_consensus import QuorumConsensusProtocol
    from repro.telemetry.recorder import use as _use_telemetry

    scale = _scale(args.scale)
    config = scale.config(args.chords, alpha=args.alpha, seed=args.seed)
    topology = config.topology
    horizon = config.warmup_time + config.batch_time
    schedule = _chaos_schedule(args.scenario, topology.n_sites, horizon)
    config = config.with_fault_schedule(schedule)
    if args.broken:
        # Deliberately violate q_r + q_w > T (and q_w > T/2): the campaign
        # must FAIL with quorum-intersection violations, proving the
        # monitor catches what construction-time validation would.
        T = topology.total_votes
        protocol = QuorumConsensusProtocol(unchecked_assignment(T, 1, T // 2))
    else:
        protocol = _make_protocol(args.protocol, topology.total_votes,
                                  args.read_quorum)
    telemetry = _telemetry_from_args(args)
    monitor = InvariantMonitor(max_records=args.max_violations,
                               telemetry=telemetry)
    with _use_telemetry(telemetry):
        report = run_chaos_campaign(
            config,
            protocol,
            n_batches=args.batches,
            monitor=monitor,
            fail_fast=args.fail_fast,
            telemetry=telemetry,
            n_workers=args.workers,
        )
    print(report.summary())
    if report.telemetry is not None:
        _export_telemetry(report.telemetry, args)
    if args.show_violations and report.violations:
        print()
        for record in report.violations[: args.show_violations]:
            print(f"  {record}")
        hidden = len(report.violations) - args.show_violations
        if hidden > 0:
            print(f"  ... and {hidden} more")
    return 0 if report.passed else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.quorum.assignment import QuorumAssignment
    from repro.serving import ServeConfig, run_serve, serving_schedule
    from repro.simulation.workload import AccessWorkload
    from repro.telemetry.recorder import use as _use_telemetry
    from repro.topology.generators import ring_with_chords

    # A gate outside its domain (NaN included) is a usage error, caught
    # before any request is served.
    if args.min_availability is not None and not 0 <= args.min_availability <= 1:
        raise ReproError(
            f"--min-availability must be in [0, 1], got {args.min_availability}")
    if args.max_p99 is not None and not args.max_p99 >= 0:
        raise ReproError(f"--max-p99 must be >= 0, got {args.max_p99}")
    if args.duration_short:
        # The CI smoke preset: small enough for seconds-scale runs, large
        # enough to cross the estimator's min-observation window and see
        # at least one reassignment under the correlated scenario.
        args.accesses = 20_000
        args.clients = 64
    topology = ring_with_chords(args.sites, args.chords)
    workload = AccessWorkload.uniform(args.sites, args.alpha)
    config = ServeConfig(
        topology=topology,
        workload=workload,
        initial_assignment=QuorumAssignment.from_read_quorum(
            topology.total_votes, args.read_quorum
        ),
        n_requests=args.accesses,
        n_clients=args.clients,
        seed=args.seed,
        scenario=args.scenario,
    )
    config.fault_schedule = serving_schedule(args.scenario, topology,
                                             config.horizon)
    telemetry = _telemetry_from_args(args)
    with _use_telemetry(telemetry):
        report = run_serve(config, telemetry)
    report.min_availability = args.min_availability
    report.max_p99 = args.max_p99
    print(report.summary())
    if telemetry.enabled:
        _export_telemetry(telemetry.snapshot(), args)
    return report.exit_code


def _cmd_metrics(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ReproError
    from repro.telemetry.export import load_snapshot_jsonl, render_report

    path = Path(args.path)
    if path.is_dir():
        path = path / "events.jsonl"
    if not path.exists():
        raise ReproError(
            f"no telemetry stream at {path}; run a command with --telemetry "
            "(or --telemetry-dir) first"
        )
    snapshot = load_snapshot_jsonl(path)
    print(render_report(snapshot))
    return 0


# ----------------------------------------------------------------------
# repro profile — canned workloads under a live recorder
# ----------------------------------------------------------------------

def _profile_enumeration(args: argparse.Namespace, telemetry) -> None:
    from repro.analytic import cache as density_cache
    from repro.analytic.enumeration import enumerate_density_matrix
    from repro.topology.generators import ring

    # Bypass the density cache so the kernel (and its phases) actually
    # run; a warm cache would profile a dictionary lookup.
    with density_cache.disabled():
        enumerate_density_matrix(ring(args.sites), 0.96, 0.96)


def _profile_montecarlo(args: argparse.Namespace, telemetry) -> None:
    from repro.analytic.montecarlo import montecarlo_density_matrix
    from repro.topology.generators import ring_with_chords

    montecarlo_density_matrix(ring_with_chords(args.sites, 2),
                              0.9, 0.9, n_samples=args.samples,
                              seed=args.seed)


def _profile_votes(args: argparse.Namespace, telemetry) -> None:
    from repro.quorum.vote_optimizer import optimize_votes
    from repro.topology.generators import ring_with_chords

    optimize_votes(ring_with_chords(args.sites, 2), alpha=0.5,
                   p=np.full(args.sites, 0.95), r=0.95, method="hillclimb",
                   n_samples=args.samples, seed=args.seed)


def _profile_simulate(args: argparse.Namespace, telemetry):
    from repro.simulation.runner import run_simulation

    config = _scale("test").config(2, alpha=0.5, seed=args.seed)
    protocol = _make_protocol("majority", config.topology.total_votes, None)
    result = run_simulation(config, protocol, telemetry=telemetry,
                            n_workers=args.workers)
    # Worker spans live only in the run's merged snapshot — the
    # dispatcher's live recorder never absorbs them. Hand the merge
    # back so the exported tree is identical for any --workers.
    return result.telemetry


def _profile_serve(args: argparse.Namespace, telemetry) -> None:
    from repro.quorum.assignment import QuorumAssignment
    from repro.serving import ServeConfig, run_serve, serving_schedule
    from repro.simulation.workload import AccessWorkload
    from repro.topology.generators import ring_with_chords

    # The `serve --duration-short` smoke preset.
    topology = ring_with_chords(args.sites, 2)
    config = ServeConfig(
        topology=topology,
        workload=AccessWorkload.uniform(args.sites, 0.7),
        initial_assignment=QuorumAssignment.from_read_quorum(
            topology.total_votes, 1
        ),
        n_requests=args.accesses,
        n_clients=64,
        seed=args.seed,
        scenario="correlated",
    )
    config.fault_schedule = serving_schedule("correlated", topology,
                                             config.horizon)
    run_serve(config, telemetry)


_PROFILE_TARGETS = {
    "enumeration": _profile_enumeration,
    "montecarlo": _profile_montecarlo,
    "votes": _profile_votes,
    "simulate": _profile_simulate,
    "serve": _profile_serve,
}

#: ``--sites`` of the targets that take it: the preset it defaults to and
#: the smallest topology the target builds (a ring needs 3 sites, a ring
#: with 2 chords 4). ``simulate`` runs its own scale preset.
_PROFILE_SITES = {
    "enumeration": (10, 3),
    "montecarlo": (13, 4),
    "votes": (12, 4),
    "serve": (13, 4),
}


def _cmd_profile(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ReproError
    from repro.telemetry.export import (
        critical_path_section,
        phase_section,
        span_tree_digest,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.telemetry.recorder import Telemetry
    from repro.telemetry.recorder import use as _use_telemetry
    from repro.telemetry.spans import SpanRecord

    if args.top < 1:
        raise ReproError(f"--top must be >= 1, got {args.top}")
    if args.target in _PROFILE_SITES:
        preset, least = _PROFILE_SITES[args.target]
        if args.sites is None:
            args.sites = preset
        elif args.sites < least:
            raise ReproError(f"--sites must be >= {least} for the {args.target} "
                             f"target, got {args.sites}")
    runner = _PROFILE_TARGETS[args.target]
    telemetry = Telemetry(max_spans=50_000)
    with _use_telemetry(telemetry):
        with telemetry.span(f"profile.{args.target}", seed=args.seed):
            merged = runner(args, telemetry)
    # A runner may return a pre-merged snapshot (cross-process targets);
    # otherwise snapshot the recorder the workload ran under.
    snapshot = merged if merged is not None else telemetry.snapshot()
    snapshot.meta.update(target=args.target, seed=args.seed)
    records = [SpanRecord.from_dict(span) for span in snapshot.spans]

    out = Path(args.out)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    trace_path = out.with_name(out.name + ".trace.json")
    write_chrome_trace(trace_path, records, phases=snapshot.phases,
                       meta={"target": args.target, "seed": args.seed})
    events_path = write_jsonl(snapshot, out.with_name(out.name + ".events.jsonl"))

    print(f"profiled {args.target} (seed {args.seed}): "
          f"{len(records)} spans, {len(snapshot.phases)} phases")
    print(f"  chrome trace : {trace_path}  "
          "(load in Perfetto or chrome://tracing)")
    print(f"  event stream : {events_path}  (summarize with `repro metrics`)")
    print(f"  tree digest  : {span_tree_digest(records)}")
    for line in (phase_section(snapshot.phases, limit=args.top)
                 + critical_path_section(records)):
        print(line)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.analytic import cache as density_cache

    if args.exercise:
        from repro.analytic import closed_form_density
        from repro.analytic.enumeration import enumerate_density_matrix
        from repro.topology.generators import ring

        topo = ring(5)
        for _ in range(2):  # second pass hits what the first one filled
            for family in ("ring", "complete", "bus"):
                for rel in (0.9, 0.96):
                    closed_form_density(family, 6, rel, rel)
            enumerate_density_matrix(topo, 0.9, 0.9)

    stats = density_cache.stats()
    state = "enabled" if density_cache.enabled() else "disabled"
    print(f"density cache: {state} "
          f"(set {density_cache.ENV_KNOB}=0 to disable)")
    print(f"  entries: {stats.entries} (capacity {density_cache.get_cache().max_entries})")
    print(f"  hits:    {stats.hits}")
    print(f"  misses:  {stats.misses}")
    print(f"  hit rate: {stats.hit_rate:.1%}")
    if stats.by_layer:
        print("  by layer:")
        for layer, (hits, misses) in sorted(stats.by_layer.items()):
            print(f"    {layer:<12} hits={hits} misses={misses}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.telemetry.recorder import use as _use_telemetry
    from repro.verification import run_profile, write_corpus

    if args.regenerate_golden:
        path = write_corpus()
        print(f"golden corpus regenerated at {path}")
        print("review the diff before committing: these values gate every "
              "future `repro verify` run")
        return 0
    telemetry = _telemetry_from_args(args)
    with _use_telemetry(telemetry):
        report = run_profile(args.profile, bug=args.inject_bug,
                             golden=not args.no_golden)
    print(report.summary(drift_top=args.drift_top))
    if telemetry.enabled:
        _export_telemetry(telemetry.snapshot(), args)
    return 0 if report.passed else 1


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.errors import ShardingError
    from repro.sharding import (
        ItemWorkload,
        ShardConfig,
        optimize_shards,
        run_sharded,
    )
    from repro.topology.generators import bus, fully_connected, ring

    if args.items < 1:
        raise ShardingError(f"--items must be >= 1, got {args.items}")
    builders = {"ring": ring, "complete": fully_connected, "bus": bus}
    topology = builders[args.family](args.sites)
    n_sites = topology.n_sites

    if args.alpha_classes:
        alphas = np.resize(
            np.asarray(args.alpha_classes, dtype=np.float64), args.items
        )
    else:
        alphas = np.full(args.items, args.alpha)

    if args.dist == "zipf":
        workload = ItemWorkload.zipf(
            args.items, n_sites, alphas, exponent=args.exponent
        )
    elif args.dist == "hotspot":
        workload = ItemWorkload.hotspot(
            args.items, n_sites, alphas,
            hot_items=range(min(args.hot, args.items)),
            hot_fraction=args.hot_fraction,
        )
    else:
        workload = ItemWorkload.uniform(args.items, n_sites, alphas)

    read_quorums = None
    plan = None
    if args.optimize:
        plan = optimize_shards(
            topology, alphas, args.p, args.r, seed=args.seed
        )
        read_quorums = plan.read_quorums

    config = ShardConfig(
        topology=topology,
        workload=workload,
        read_quorums=read_quorums,
        warmup_accesses=args.warmup,
        accesses_per_batch=args.accesses,
        n_batches=args.batches,
        seed=args.seed,
    )
    result = run_sharded(config, engine=args.engine, n_workers=args.workers)

    print(f"sharded run     : {args.family}-{args.sites}, {args.items} items "
          f"({args.dist}), engine={args.engine}, workers={args.workers}")
    print(f"quorum classes  : {result.n_classes} for {args.items} items")
    if plan is not None:
        print(f"optimization    : {plan.optimizations_run} per-class runs "
              f"for {plan.n_items} items")
        for group, best in zip(plan.groups, plan.group_results):
            print(f"  class alpha={group.alpha:g} ({group.size} items): "
                  f"q_r={best.read_quorum}, A*={best.availability:.4f}")
    print(f"batches         : {args.batches} x {args.accesses:g} accesses "
          f"(+ {args.warmup:g} warm-up)")
    submitted = int(result.reads_submitted.sum() + result.writes_submitted.sum())
    print(f"availability    : {result.availability:.4f} "
          f"(pooled ACC over {submitted} accesses)")
    item_acc = result.item_availability
    print(f"item ACC        : min {item_acc.min():.4f} / "
          f"mean {item_acc.mean():.4f} / max {item_acc.max():.4f}")
    print(f"SURV            : read {result.surv_read.mean():.4f}, "
          f"write {result.surv_write.mean():.4f} (item mean)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validation import validate_reproduction

    report = validate_reproduction(seed=args.seed)
    print(report)
    return 0 if report.passed else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal quorum assignments for replicated distributed databases "
        "(Johnson & Raab, ICPP 1991 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="Figure-1 optimal quorum assignment")
    opt.add_argument("--family", choices=_DENSITY_FAMILIES, default="ring")
    opt.add_argument("--sites", type=int, default=101)
    opt.add_argument("--p", type=float, default=0.96, help="site reliability")
    opt.add_argument("--r", type=float, default=0.96, help="link/bus reliability")
    opt.add_argument("--alpha", type=float, default=0.5, help="read fraction")
    opt.add_argument("--write-floor", type=float, default=0.0,
                     help="minimum write availability A_w (section 5.4)")
    opt.set_defaults(func=_cmd_optimize)

    sim = sub.add_parser("simulate", help="discrete-event availability simulation")
    sim.add_argument("--chords", type=int, default=2,
                     help="paper topology index (ring + this many chords)")
    sim.add_argument("--alpha", type=float, default=0.5)
    sim.add_argument("--protocol", default="majority",
                     choices=("majority", "rowa", "primary", "quorum"))
    sim.add_argument("--read-quorum", type=int, default=None,
                     help="q_r for --protocol quorum (q_w = T - q_r + 1)")
    sim.add_argument("--scale", choices=_SCALES, default="bench")
    sim.add_argument("--target-half-width", type=float, default=None,
                     help="add batches until the 95%% CI half-width reaches this")
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--workers", type=int, default=1, metavar="N",
                     help="fan batches out over N worker processes; "
                     "aggregates are bitwise identical for any N")
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--fail-fast", dest="keep_going", action="store_false",
                       help="abort the whole run on the first batch error (default)")
    group.add_argument("--keep-going", dest="keep_going", action="store_true",
                       help="quarantine failed batches (with seed + fault trace "
                       "for replay) and continue")
    _add_telemetry_args(sim)
    sim.set_defaults(func=_cmd_simulate, keep_going=False)

    fig = sub.add_parser("figure", help="regenerate one paper figure's series")
    fig.add_argument("--chords", type=int, default=0)
    fig.add_argument("--scale", choices=_SCALES, default="bench")
    fig.add_argument("--points", type=int, default=12)
    fig.add_argument("--chart", action="store_true",
                     help="render an ASCII line chart instead of the table")
    fig.add_argument("--seed", type=_seed, default=0)
    fig.set_defaults(func=_cmd_figure)

    rw = sub.add_parser("rw-table", help="section 5.5 read-write-ratio summary")
    rw.add_argument("--chords", type=int, nargs="+", default=[0, 2, 16, 256])
    rw.add_argument("--scale", choices=_SCALES, default="bench")
    rw.add_argument("--seed", type=_seed, default=0)
    rw.set_defaults(func=_cmd_rw_table)

    wc = sub.add_parser("write-constraint", help="section 5.4 floor sweep")
    wc.add_argument("--chords", type=int, default=2)
    wc.add_argument("--alpha", type=float, default=0.75)
    wc.add_argument("--floors", type=float, nargs="+",
                    default=[0.0, 0.05, 0.1, 0.2, 0.4])
    wc.add_argument("--scale", choices=_SCALES, default="bench")
    wc.add_argument("--seed", type=_seed, default=0)
    wc.set_defaults(func=_cmd_write_constraint)

    votes = sub.add_parser("votes", help="optimize the vote assignment too")
    votes.add_argument("--sites", type=int, default=12)
    votes.add_argument("--chords", type=int, default=2)
    votes.add_argument("--alpha", type=float, default=0.5)
    votes.add_argument("--p", type=float, default=0.95)
    votes.add_argument("--r", type=float, default=0.95)
    votes.add_argument("--flaky-every", type=int, default=0,
                       help="mark every k-th site flaky (0 = none)")
    votes.add_argument("--flaky-p", type=float, default=0.55)
    votes.add_argument("--total-votes", type=int, default=None)
    votes.add_argument("--method", choices=("hillclimb", "exhaustive"),
                       default="hillclimb")
    votes.add_argument("--samples", type=int, default=2_000)
    votes.add_argument("--seed", type=_seed, default=0)
    votes.set_defaults(func=_cmd_votes)

    shoot = sub.add_parser(
        "shootout",
        help="replay one failure trace under every protocol",
    )
    shoot.add_argument("--chords", type=int, default=2)
    shoot.add_argument("--alpha", type=float, default=0.5)
    shoot.add_argument("--scale", choices=_SCALES, default="test")
    shoot.add_argument("--seed", type=_seed, default=0)
    shoot.set_defaults(func=_cmd_shootout)

    camp = sub.add_parser(
        "campaign",
        help="regenerate the paper's whole evaluation section",
    )
    camp.add_argument("--scale", choices=_SCALES, default="bench")
    camp.add_argument("--seed", type=_seed, default=0)
    camp.add_argument("--full", action="store_true",
                      help="include the fully-connected topology (slow)")
    camp.set_defaults(func=_cmd_campaign)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection campaign with invariant monitoring",
    )
    chaos.add_argument("--scenario", choices=_CHAOS_SCENARIOS, default="mixed")
    chaos.add_argument("--chords", type=int, default=2)
    chaos.add_argument("--alpha", type=float, default=0.5)
    chaos.add_argument("--protocol", default="majority",
                       choices=("majority", "rowa", "primary", "quorum"))
    chaos.add_argument("--read-quorum", type=int, default=None)
    chaos.add_argument("--broken", action="store_true",
                       help="inject a deliberately invalid quorum assignment "
                       "(q_r + q_w <= T); the campaign must FAIL")
    chaos.add_argument("--batches", type=int, default=None,
                       help="batches to run (default: the scale's n_batches)")
    chaos.add_argument("--scale", choices=_SCALES, default="test")
    chaos.add_argument("--seed", type=_seed, default=0)
    chaos.add_argument("--workers", type=int, default=1, metavar="N",
                       help="fan batches out over N worker processes; the "
                       "report is deterministic for any N")
    chaos.add_argument("--max-violations", type=int, default=1000,
                       help="cap on recorded violation records")
    chaos.add_argument("--show-violations", type=int, default=5,
                       help="print up to this many violation records")
    chaos_group = chaos.add_mutually_exclusive_group()
    chaos_group.add_argument("--fail-fast", dest="fail_fast", action="store_true",
                             help="abort on the first batch error instead of "
                             "quarantining it")
    chaos_group.add_argument("--keep-going", dest="fail_fast", action="store_false",
                             help="quarantine failed batches and continue (default)")
    _add_telemetry_args(chaos)
    chaos.set_defaults(func=_cmd_chaos, fail_fast=False)

    serve = sub.add_parser(
        "serve",
        help="adaptive quorum serving: asyncio service + chaos + online "
        "QR reassignment (exit 0 clean / 1 SLO or invariant failure / "
        "2 usage error)",
    )
    serve.add_argument("--sites", type=int, default=13)
    serve.add_argument("--chords", type=int, default=2,
                       help="ring chords (paper topology family)")
    serve.add_argument("--alpha", type=float, default=0.7,
                       help="read fraction of the client stream")
    serve.add_argument("--read-quorum", type=int, default=1,
                       help="initial q_r (q_w = T - q_r + 1); the adaptive "
                       "loop reassigns from here")
    serve.add_argument("--accesses", type=int, default=1_000_000,
                       help="total client accesses to stream")
    serve.add_argument("--clients", type=int, default=1_000,
                       help="concurrent client feeders (pacing only; results "
                       "are bitwise identical for any value)")
    from repro.serving.scenarios import SERVE_SCENARIOS as _SERVE_SCENARIOS

    serve.add_argument("--scenario", choices=_SERVE_SCENARIOS,
                       default="correlated",
                       help="scripted fault scenario injected during serving")
    serve.add_argument("--seed", type=_seed, default=0)
    serve.add_argument("--duration-short", action="store_true",
                       help="CI smoke preset: 20k accesses, 64 clients")
    serve.add_argument("--min-availability", type=float, default=None,
                       metavar="A",
                       help="SLO gate: fail (exit 1) if request-level "
                       "availability ends below A")
    serve.add_argument("--max-p99", type=float, default=None, metavar="SECS",
                       help="SLO gate: fail (exit 1) if p99 grant latency "
                       "(simulated seconds) exceeds SECS")
    _add_telemetry_args(serve)
    serve.set_defaults(func=_cmd_serve)

    metrics = sub.add_parser(
        "metrics",
        help="summarize a --telemetry JSONL stream (spans, counters, audit)",
    )
    metrics.add_argument("path", help="events.jsonl file, or the directory "
                         "--telemetry-dir wrote it to")
    metrics.set_defaults(func=_cmd_metrics)

    profile = sub.add_parser(
        "profile",
        help="run a canned workload under a live recorder and export a "
        "Chrome trace (Perfetto-loadable) plus the telemetry event stream",
    )
    profile.add_argument("target", choices=sorted(_PROFILE_TARGETS),
                         help="which hot path to profile")
    profile.add_argument("--out", default="profile", metavar="PREFIX",
                         help="output prefix; writes PREFIX.trace.json and "
                         "PREFIX.events.jsonl (default: profile)")
    profile.add_argument("--seed", type=_seed, default=0)
    profile.add_argument("--sites", type=int, default=None,
                         help="topology size (default: per-target preset)")
    profile.add_argument("--samples", type=int, default=20_000,
                         help="Monte-Carlo / vote-search sample budget")
    profile.add_argument("--accesses", type=int, default=20_000,
                         help="client accesses for the serve target")
    profile.add_argument("--workers", type=int, default=1, metavar="N",
                         help="worker processes for the simulate target; "
                         "the span-tree digest is identical for any N")
    profile.add_argument("--top", type=int, default=10, metavar="N",
                         help="phases to print in the summary table")
    profile.set_defaults(func=_cmd_profile)

    cache_p = sub.add_parser(
        "cache", help="cross-layer density cache statistics"
    )
    cache_p.add_argument(
        "--exercise", action="store_true",
        help="run a small closed-form + enumeration workload twice first, "
        "so the printed statistics show warm-cache behaviour",
    )
    cache_p.set_defaults(func=_cmd_cache)

    val = sub.add_parser(
        "validate",
        help="run the reproduction-fidelity check battery (EXPERIMENTS.md)",
    )
    val.add_argument("--seed", type=_seed, default=0)
    val.set_defaults(func=_cmd_validate)

    verify = sub.add_parser(
        "verify",
        help="differential verification: cross-engine pairs, metamorphic "
        "relations, golden corpus (exit 0 pass / 1 divergence / 2 config "
        "error)",
    )
    verify.add_argument("--profile", choices=("quick", "full"), default="quick",
                        help="case battery to run (quick = per-PR gate)")
    verify.add_argument("--inject-bug", default=None, metavar="NAME",
                        help="wire a deliberate defect (e.g. "
                        "'quorum-off-by-one') into the closed-form engine; "
                        "a healthy harness must then exit 1")
    verify.add_argument("--regenerate-golden", action="store_true",
                        help="recompute and overwrite the locked golden "
                        "corpus instead of checking against it")
    verify.add_argument("--no-golden", action="store_true",
                        help="skip the golden-corpus drift check")
    verify.add_argument("--drift-top", type=int, default=5, metavar="N",
                        help="show the N checks closest to their tolerance")
    _add_telemetry_args(verify)
    verify.set_defaults(func=_cmd_verify)

    shard = sub.add_parser(
        "shard",
        help="vectorized N-item sharded simulation with per-shard "
        "quorum optimization",
    )
    shard.add_argument("--family", choices=_DENSITY_FAMILIES, required=True,
                       help="topology family (required)")
    shard.add_argument("--sites", type=int, default=9)
    shard.add_argument("--items", type=int, default=100, metavar="N",
                       help="number of replicated items")
    shard.add_argument("--dist", choices=("uniform", "zipf", "hotspot"),
                       default="zipf", help="item-access skew")
    shard.add_argument("--exponent", type=float, default=1.0,
                       help="Zipf exponent for --dist zipf")
    shard.add_argument("--hot", type=int, default=1,
                       help="number of hot items for --dist hotspot")
    shard.add_argument("--hot-fraction", type=float, default=0.8,
                       help="traffic share of the hot items")
    shard.add_argument("--alpha", type=float, default=0.5,
                       help="read fraction for every item")
    shard.add_argument("--alpha-classes", type=float, nargs="+", default=None,
                       metavar="A", help="per-class read fractions, tiled "
                       "over the items (defines the workload classes)")
    shard.add_argument("--batches", type=int, default=3)
    shard.add_argument("--accesses", type=float, default=5_000.0,
                       help="accesses per measured batch")
    shard.add_argument("--warmup", type=float, default=500.0)
    shard.add_argument("--engine", choices=("vectorized", "reference"),
                       default="vectorized")
    shard.add_argument("--workers", type=int, default=1, metavar="N",
                       help="fan batches over N processes; bitwise "
                       "identical for any N")
    shard.add_argument("--optimize", action="store_true",
                       help="run the per-class quorum optimization and "
                       "simulate the optimized assignment")
    shard.add_argument("--p", type=float, default=0.96,
                       help="site reliability for --optimize")
    shard.add_argument("--r", type=float, default=0.96,
                       help="link reliability for --optimize")
    shard.add_argument("--seed", type=_seed, default=0)
    shard.set_defaults(func=_cmd_shard)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    0 = ok, 1 = domain failure (divergence, FAIL verdict, missed SLO),
    2 = usage, configuration or I/O error, or an interrupt: one
    ``error: …`` line on stderr, never a traceback.
    """
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
