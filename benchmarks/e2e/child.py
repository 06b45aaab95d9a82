"""One workload in one fresh process (started by ``run.py``, not by hand).

Modes:

``setup``    build the inputs and exit — the launcher times the whole launch;
``measure``  set-up, one warm-up pass, the timed passes with tracing off and
             a reference slice (``calibrate.py``) between them, each pass
             after the first on inputs from its own sub-seed, then the
             correctness checks on the first;
``trace``    set-up under the span recorder, one warm-up pass, then pairs of
             (untraced, traced) passes, the layer replays and the checks.

The last line of standard output is one JSON object for the launcher.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from statistics import median
from time import perf_counter, process_time
from typing import Dict, List

from calibrate import REFERENCE_S, calibrated, reference_slice
from metrics import PER_LAYER, WORKLOAD_NAMES
from spans import NULL_TRACER, Tracer

#: With ``--seconds`` the loop still makes this many timed passes.
MIN_PASSES = 3
#: Measured pass ``k`` takes its inputs from ``seed + k * SEED_STRIDE``; a
#: prime above every offset the workloads add to a seed themselves.
SEED_STRIDE = 10_007

#: Span names that become ``<name>.busy_s`` layer metrics.
BUSY_SPANS = (
    "experiments.figures", "simulation.runner", "simulation.engine",
    "quorum.availability", "quorum.optimizer", "experiments.tables",
    "experiments.sweeps", "analytic.enumeration", "analytic.montecarlo",
    "analytic.variance", "analytic.closed_form", "quorum.vote_optimizer",
    "serving.service", "sharding.engine", "sharding.optimizer",
)
#: Set-up span names that become ``<name>_s`` layer metrics.
BUILD_SPANS = ("topology.build", "faults.schedule.build", "sharding.workload.build")

_ZERO = {"count": 0, "busy": 0.0, "self": 0.0}


def install_patches(tracer: Tracer, captured: list) -> None:
    """Span the layer boundaries the harness does not call itself.

    ``captured`` receives ``(config, protocol, batch_index, result)`` for
    every simulated batch, the result now carrying its trace: the engine
    records the failure history anyway, and asking it to hand the history
    back is what makes the replays run over exactly the batches whose time
    ``simulation.engine`` spans.
    """
    from repro.analytic import closed_form_density
    from repro.quorum.availability import AvailabilityModel
    from repro.quorum.constraints import optimize_with_write_floor
    from repro.quorum.optimizer import optimal_read_quorum
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.runner import SimulationResult, run_simulation

    tracer.patch_function(run_simulation, "simulation.runner")
    tracer.patch_method(SimulationResult, "availability_model", "quorum.availability")
    tracer.patch_method(AvailabilityModel, "curve", "quorum.availability")
    tracer.patch_function(optimal_read_quorum, "quorum.optimizer")
    tracer.patch_function(optimize_with_write_floor, "quorum.optimizer")
    tracer.patch_function(closed_form_density, "analytic.closed_form")

    original = SimulationEngine.run_batch

    def run_batch(engine, batch_index):
        engine.record_trace = True
        with tracer.span("simulation.engine"):
            result = original(engine, batch_index)
        captured.append((engine.config, engine.protocol, batch_index, result))
        return result

    tracer.patch(SimulationEngine, "run_batch", run_batch)


def traced_pass(workload, inputs, tracer: Tracer):
    """One pass under the recorder: ``(outputs, span totals, captured batches)``."""
    captured: list = []
    first = len(tracer.spans)
    install_patches(tracer, captured)
    try:
        with tracer.span("pass"):
            out = workload.run_pass(inputs, tracer)
    finally:
        tracer.unpatch()
    return out, tracer.totals(first), captured


def replay_layers(captured: list) -> Dict[str, float]:
    """Sum of every layer replay over the captured batches, times calibrated.

    ``engine_events`` is what the engine itself counted on those batches.
    """
    from replay import replay_batch

    total: Dict[str, float] = {}
    if not captured:
        return total
    before = reference_slice()
    for config, protocol, batch_index, result in captured:
        replayed = replay_batch(config, protocol, batch_index, result.trace)
        replayed["engine_events"] = result.n_events
        for key, value in replayed.items():
            total[key] = total.get(key, 0.0) + value
    scale = REFERENCE_S / ((before + reference_slice()) / 2.0)
    return {key: value * scale if key.endswith("_s") else value
            for key, value in total.items()}


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(setup: dict, passes: List[dict], replays: dict, counters: dict,
                  untraced_cpu: List[float], scale: float,
                  result_err: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric; a layer the workload never entered reads 0.

    Busy times are medians over the traced passes, in calibrated seconds
    like ``pass_s``: CPU seconds times ``scale``, which is ``REFERENCE_S``
    over the median reference slice of the run (the replays arrive scaled
    by the slices around them). Every traced pass simulates the same
    batches, the ones the replays ran over, so ``simulation.engine.self_s``
    subtracts the replays from the median engine time.
    """
    def busy(name: str) -> float:
        return scale * median(p.get(name, _ZERO)["busy"] for p in passes)

    last = passes[-1]
    m = dict.fromkeys(PER_LAYER, 0.0)
    for name in BUILD_SPANS:
        m[name + "_s"] = scale * setup.get(name, _ZERO)["busy"]
    for name in BUSY_SPANS:
        m[name + ".busy_s"] = busy(name)
    m["quorum.optimizer.calls"] = last.get("quorum.optimizer", _ZERO)["count"]

    if replays:
        refreshes = replays["incremental"] + replays["full"]
        m["simulation.events.busy_s"] = replays["events_s"]
        m["simulation.events.count"] = replays["events"]
        m["simulation.events.per_s"] = _rate(replays["events"], replays["events_s"])
        m["connectivity.tracker.busy_s"] = replays["tracker_s"]
        m["connectivity.tracker.refreshes"] = refreshes
        m["connectivity.tracker.incremental_ratio"] = _rate(
            replays["incremental"], refreshes)
        m["connectivity.tracker.us_per_event"] = 1e6 * _rate(
            replays["tracker_s"], replays["trace_events"])
        m["connectivity.relabel.busy_s"] = replays["relabel_s"]
        m["connectivity.relabel.us_per_state"] = 1e6 * _rate(
            replays["relabel_s"], replays["relabel_states"])
        m["protocols.grant.busy_s"] = replays["grant_s"]
        m["simulation.workload.busy_s"] = replays["workload_s"]
        m["protocols.estimator.busy_s"] = replays["estimator_s"]
        m["simulation.engine.self_s"] = m["simulation.engine.busy_s"] - sum(
            replays[k] for k in
            ("events_s", "tracker_s", "grant_s", "workload_s", "estimator_s"))

    c = counters
    if "enum_states" in c:
        m["analytic.enumeration.states_per_s"] = _rate(
            c["enum_states"], m["analytic.enumeration.busy_s"])
        m["analytic.montecarlo.samples_per_s"] = _rate(
            c["mc_samples"], m["analytic.montecarlo.busy_s"])
        m["analytic.variance.samples_per_s"] = _rate(
            c["stratified_samples"], m["analytic.variance.busy_s"])
        m["quorum.vote_optimizer.candidates_per_s"] = _rate(
            c["vote_candidates"], m["quorum.vote_optimizer.busy_s"])
        lookups = c["cache_hits"] + c["cache_misses"]
        m["analytic.cache.lookups"] = lookups
        m["analytic.cache.hit_ratio"] = _rate(c["cache_hits"], lookups)
    if "requests" in c:
        m["serving.service.requests_per_s"] = _rate(
            c["requests"], m["serving.service.busy_s"])
        for name in ("retries", "shed", "breaker_trips", "reassignments",
                     "denied_ratio"):
            m["serving." + name] = c[name]
        m["sharding.engine.item_epochs_per_s"] = _rate(
            c["item_epochs"], m["sharding.engine.busy_s"])
        m["sharding.optimizer.group_ratio"] = c["group_ratio"]

    traced_pass = median(p["pass"]["busy"] for p in passes)
    unattributed = median(p["pass"]["self"] for p in passes)
    m["trace.coverage"] = 1.0 - _rate(unattributed, traced_pass)
    m["trace.unattributed_s"] = scale * unattributed
    m["trace.overhead_ratio"] = _rate(traced_pass, median(untraced_cpu)) - 1.0
    m["result.err"] = result_err
    return m


def runtime() -> dict:
    """What actually ran: interpreter, libraries and the resolved backend."""
    import importlib.util
    import platform

    import numpy
    import scipy
    from repro.analytic.enumeration import resolve_backend

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "enumeration_backend": resolve_backend(),
    }


def _enough(n_passes: int, elapsed: float, args) -> bool:
    if args.seconds is None:
        return n_passes >= args.passes
    return n_passes >= MIN_PASSES and elapsed >= args.seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS  # imports every layer the workloads use

    workload = WORKLOADS[args.workload]
    sizes = workload.sizes(args.quick)
    tracer = Tracer() if args.mode == "trace" else NULL_TRACER
    inputs = workload.build(args.seed, sizes, tracer)
    if args.mode == "setup":
        return 0
    setup_totals = tracer.totals() if tracer.enabled else {}

    out = workload.run_pass(inputs, NULL_TRACER)  # warm-up: caches fill, lazy imports land

    walls: List[float] = []
    cpus: List[float] = []
    slices = [reference_slice()]
    digests = [workload.digest(out)]
    traced: List[dict] = []
    captured: list = []
    loop_start = perf_counter()
    while not _enough(len(walls), perf_counter() - loop_start, args):
        # How long a pass takes depends on the seed (by 30 % on serve-shard:
        # a batch sees some fifty failures), so the measured passes after the
        # first each take inputs from a seed of their own, built outside the
        # timing, and the run's median is over several seeds' worth of work.
        # The traced run stays on the one seed: its counts repeat exactly.
        fresh = args.mode == "measure" and len(walls) > 0
        pass_inputs = (workload.build(args.seed + len(walls) * SEED_STRIDE, sizes,
                                      NULL_TRACER) if fresh else inputs)
        t0, c0 = perf_counter(), process_time()
        pass_out = workload.run_pass(pass_inputs, NULL_TRACER)
        cpus.append(process_time() - c0)
        walls.append(perf_counter() - t0)
        slices.append(reference_slice())
        if fresh:
            continue
        out = pass_out
        digests.append(workload.digest(out))
        if args.mode == "trace":
            out, totals, captured = traced_pass(workload, inputs, tracer)
            traced.append(totals)
            digests.append(workload.digest(out))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = workload.summarize(inputs, out)
    checks = workload.checks(inputs, out, summary, args.quick)
    checks.append(("result_digest identical across passes of one seed",
                   len(set(digests)) == 1,
                   f"{len(set(digests))} distinct in {len(digests)} passes"))

    record = {
        "runtime": runtime(), "workload": args.workload, "seed": args.seed,
        "mode": args.mode, "sizes": sizes, "work": workload.work(sizes),
        "pass_s": calibrated(cpus, slices),
        "pass_cpu_s": cpus, "pass_wall_s": walls, "reference_s": slices,
        "peak_rss_mb": peak_rss_mb, "result_digest": digests[-1],
        "result_err": summary["result_err"],
    }
    if args.mode == "trace":
        replays = replay_layers(captured)
        if replays:
            checks.append((
                "replayed event generator reproduces the engine's event count",
                replays["events"] == replays["trace_events"]
                == replays["engine_events"],
                f"{replays['events']:.0f} replayed, "
                f"{replays['engine_events']:.0f} simulated"))
        record["layers"] = layer_metrics(
            setup_totals, traced, replays, summary["counters"], cpus,
            REFERENCE_S / median(slices), summary["result_err"])
        record["traced_pass_s"] = [p["pass"]["busy"] for p in traced]
        if args.spans:
            with open(args.spans, "w") as handle:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "columns": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, handle)
    record["checks"] = [
        {"name": name, "ok": bool(ok), "detail": detail} for name, ok, detail in checks
    ]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
