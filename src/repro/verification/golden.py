"""The golden regression corpus: locked reference results with drift checks.

Differential pairs and metamorphic relations catch *internal*
inconsistency; the corpus catches *drift* — a refactor that moves every
engine by the same wrong amount passes every cross-check but not a
comparison against values locked in the repository.

Three kinds of entries, all exactly reproducible:

- ``closed-form`` — paper-parameter reference points (Figures 5 and 7
  regime: 101 sites, component reliability 0.96, the paper's five access
  mixes): optimal quorum, optimal availability, and curve samples.
  Deterministic to float round-off.
- ``monte-carlo`` — seeded static Monte-Carlo estimates on the quick
  verification cases. The substream derivation makes these bitwise
  reproducible for a fixed seed, so the locked values are exact.
- ``simulation`` — one seeded discrete-event campaign (per-batch ACC and
  the pooled/audit accounting). Also bitwise reproducible.
- ``serving`` — one seeded adaptive-serving run under the scripted
  correlated-failure scenario: reassignment count, final ``q_r``, and
  the availability/robustness accounting. The serving engine's
  single-sequencer design makes these bitwise reproducible too.

``check_corpus`` recomputes everything and reports per-metric drift
against the locked values; any structural mismatch or drift beyond
tolerance names the regeneration command so an *intentional* behavior
change is a one-command corpus refresh reviewed in the diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.analytic import closed_form_density
from repro.errors import VerificationError
from repro.experiments.paper import PAPER_ALPHAS, PAPER_N_SITES, PAPER_RELIABILITY
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import optimal_read_quorum
from repro.verification.cases import VerificationCase, profile_cases
from repro.verification.tolerance import CheckResult, Estimate, compare
from repro.verification.witnesses import montecarlo_engine, simulation_engine_run

__all__ = [
    "CORPUS_VERSION",
    "REGENERATE_HINT",
    "corpus_path",
    "generate_corpus",
    "load_corpus",
    "write_corpus",
    "check_corpus",
]

CORPUS_VERSION = 1

REGENERATE_HINT = (
    "if this change is intentional, refresh the locked values with "
    "`python -m repro verify --regenerate-golden` and review the corpus "
    "diff"
)

#: Curve sample points for the paper-parameter entries.
_PAPER_SAMPLE_QUORUMS = (1, 2, 25, 50)


def corpus_path() -> Path:
    """Location of the locked corpus inside the package."""
    return Path(__file__).resolve().parent / "golden" / "corpus.json"


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------

def _paper_entries() -> List[dict]:
    entries: List[dict] = []
    for family in ("ring", "complete", "bus"):
        row = closed_form_density(
            family, PAPER_N_SITES, PAPER_RELIABILITY, PAPER_RELIABILITY
        )
        model = AvailabilityModel(row, row)
        for alpha in PAPER_ALPHAS:
            best = optimal_read_quorum(model, alpha)
            metrics: Dict[str, float] = {
                "q*": float(best.read_quorum),
                "A*": float(best.availability),
            }
            for q in _PAPER_SAMPLE_QUORUMS:
                metrics[f"A(q={q})"] = float(model.availability(alpha, q))
            entries.append(
                {
                    "name": f"paper-{family}-alpha-{alpha:g}",
                    "kind": "closed-form",
                    "tolerance": 1e-9,
                    "params": {
                        "family": family,
                        "n_sites": PAPER_N_SITES,
                        "p": PAPER_RELIABILITY,
                        "r": PAPER_RELIABILITY,
                        "alpha": alpha,
                    },
                    "metrics": metrics,
                }
            )
    return entries


def _montecarlo_entries() -> List[dict]:
    entries: List[dict] = []
    for case in profile_cases("quick"):
        engine = montecarlo_engine(case)
        metrics = {
            metric: est.value
            for metric, est in engine.availability_estimates(case).items()
        }
        entries.append(
            {
                "name": f"mc-{case.name}-seed-{case.seed}",
                "kind": "monte-carlo",
                "tolerance": 1e-9,
                "params": {
                    "case": case.name,
                    "seed": case.seed,
                    "n_samples": case.mc_samples,
                },
                "metrics": metrics,
            }
        )
    return entries


def _simulation_case() -> VerificationCase:
    for case in profile_cases("quick"):
        if case.sim_read_quorum is not None:
            return case
    raise VerificationError("quick profile has no simulation-capable case")


def _simulation_entry() -> dict:
    case = _simulation_case()
    run = simulation_engine_run(case, with_telemetry=True)
    metrics: Dict[str, float] = {
        "ACC": run.acc.value,
        "SURV": run.surv.value,
        "pooled-ACC": run.pooled_acc,
        "audit-ACC": float(run.audit_acc),
    }
    for i, value in enumerate(run.batch_acc):
        metrics[f"batch-ACC[{i}]"] = float(value)
    return {
        "name": f"sim-{case.name}-seed-{case.seed}",
        "kind": "simulation",
        "tolerance": 1e-9,
        "params": {
            "case": case.name,
            "seed": case.seed,
            "sim_read_quorum": case.sim_read_quorum,
        },
        "metrics": metrics,
    }


#: Parameters of the locked adaptive-serving scenario. Small enough to
#: regenerate in seconds, large enough that the online estimator crosses
#: its observation threshold and installs at least one reassignment.
_SERVING_SEED = 7
_SERVING_SITES = 13
_SERVING_CHORDS = 2
_SERVING_ALPHA = 0.7
_SERVING_REQUESTS = 20_000
_SERVING_SCENARIO = "correlated"


def _serving_entry() -> dict:
    from repro.quorum.assignment import QuorumAssignment
    from repro.serving import ServeConfig, run_serve, serving_schedule
    from repro.simulation.workload import AccessWorkload
    from repro.topology.generators import ring_with_chords

    topology = ring_with_chords(_SERVING_SITES, _SERVING_CHORDS)
    config = ServeConfig(
        topology=topology,
        workload=AccessWorkload.uniform(_SERVING_SITES, _SERVING_ALPHA),
        initial_assignment=QuorumAssignment.from_read_quorum(
            topology.total_votes, 1
        ),
        n_requests=_SERVING_REQUESTS,
        seed=_SERVING_SEED,
        scenario=_SERVING_SCENARIO,
    )
    config.fault_schedule = serving_schedule(
        _SERVING_SCENARIO, topology, config.horizon
    )
    report = run_serve(config)
    if report.violations or not report.reconciled:
        raise VerificationError(
            "serving golden entry produced an invalid run (violations="
            f"{len(report.violations)}, reconciled={report.reconciled})"
        )
    metrics: Dict[str, float] = {
        "reassignments": float(len(report.reassignments)),
        "final-q_r": float(report.final_read_quorum),
        "final-version": float(report.final_version),
        "request-availability": float(report.availability),
        "attempt-ACC": float(report.attempt_availability),
        "retries-scheduled": float(report.retries_scheduled),
        "retries-exhausted": float(report.retries_exhausted),
        "breaker-trips": float(report.breaker_trips),
        "read-only-entries": float(report.read_only_entries),
    }
    return {
        "name": f"serve-{_SERVING_SCENARIO}-seed-{_SERVING_SEED}",
        "kind": "serving",
        "tolerance": 1e-9,
        "params": {
            "n_sites": _SERVING_SITES,
            "chords": _SERVING_CHORDS,
            "alpha": _SERVING_ALPHA,
            "n_requests": _SERVING_REQUESTS,
            "scenario": _SERVING_SCENARIO,
            "seed": _SERVING_SEED,
            "initial_read_quorum": 1,
        },
        "metrics": metrics,
    }


#: Parameters of the locked sharded-optimizer entries: one exact
#: (enumeration-density) small-N plan and one seeded Monte-Carlo plan at
#: 10^4 items (8 alpha classes tiled — the grouping makes the item count
#: nearly free, which is exactly the behaviour being locked).
_SHARD_EXACT_ALPHAS = (0.2, 0.5, 0.8, 0.5)
_SHARD_MC_CLASSES = (0.05, 0.2, 0.35, 0.5, 0.6, 0.75, 0.9, 1.0)
_SHARD_MC_ITEMS = 10_000
_SHARD_MC_SAMPLES = 2_000
_SHARD_SEED = 0


def _shard_plan_metrics(plan) -> Dict[str, float]:
    metrics: Dict[str, float] = {
        "classes": float(plan.optimizations_run),
        "items": float(plan.n_items),
    }
    for group, best in zip(plan.groups, plan.group_results):
        metrics[f"q*(alpha={group.alpha:g})"] = float(best.read_quorum)
        metrics[f"A*(alpha={group.alpha:g})"] = float(best.availability)
    return metrics


def _sharded_entries() -> List[dict]:
    from repro.sharding.optimizer import optimize_shards
    from repro.topology.generators import ring

    entries: List[dict] = []

    # Exact enumeration oracle on a small ring; includes a duplicate
    # alpha class so the locked values also pin the grouping behaviour.
    plan = optimize_shards(
        ring(5), np.asarray(_SHARD_EXACT_ALPHAS), 0.9, 0.85,
        engine="enumeration",
    )
    entries.append(
        {
            "name": "shard-ring-5-enumeration",
            "kind": "sharded",
            "tolerance": 1e-9,
            "params": {
                "family": "ring",
                "n_sites": 5,
                "p": 0.9,
                "r": 0.85,
                "alphas": list(_SHARD_EXACT_ALPHAS),
            },
            "metrics": _shard_plan_metrics(plan),
        }
    )

    # Seeded Monte-Carlo at scale: 10^4 items, 8 classes, bitwise
    # reproducible through the substream derivation.
    alphas = np.tile(np.asarray(_SHARD_MC_CLASSES),
                     _SHARD_MC_ITEMS // len(_SHARD_MC_CLASSES))
    plan = optimize_shards(
        ring(9), alphas, 0.92, 0.88,
        engine="monte-carlo",
        n_samples=_SHARD_MC_SAMPLES,
        seed=_SHARD_SEED,
    )
    entries.append(
        {
            "name": f"shard-ring-9-mc-seed-{_SHARD_SEED}",
            "kind": "sharded",
            "tolerance": 1e-9,
            "params": {
                "family": "ring",
                "n_sites": 9,
                "p": 0.92,
                "r": 0.88,
                "n_items": int(alphas.shape[0]),
                "alpha_classes": list(_SHARD_MC_CLASSES),
                "n_samples": _SHARD_MC_SAMPLES,
                "seed": _SHARD_SEED,
            },
            "metrics": _shard_plan_metrics(plan),
        }
    )
    return entries


def generate_corpus() -> dict:
    """Recompute every corpus entry from the current code."""
    return {
        "version": CORPUS_VERSION,
        "generator": "python -m repro verify --regenerate-golden",
        "entries": (
            _paper_entries()
            + _montecarlo_entries()
            + [_simulation_entry(), _serving_entry()]
            + _sharded_entries()
        ),
    }


def write_corpus(path: Optional[Path] = None) -> Path:
    """Regenerate and lock the corpus (the --regenerate-golden action)."""
    path = Path(path) if path is not None else corpus_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    corpus = generate_corpus()
    path.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------

def load_corpus(path: Optional[Path] = None) -> dict:
    """Load and structurally validate the locked corpus."""
    path = Path(path) if path is not None else corpus_path()
    if not path.exists():
        raise VerificationError(
            f"golden corpus not found at {path}; {REGENERATE_HINT}"
        )
    try:
        corpus = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise VerificationError(
            f"golden corpus at {path} is not valid JSON ({exc}); {REGENERATE_HINT}"
        ) from exc
    if not isinstance(corpus, dict) or "entries" not in corpus:
        raise VerificationError(
            f"golden corpus at {path} has no 'entries'; {REGENERATE_HINT}"
        )
    if corpus.get("version") != CORPUS_VERSION:
        raise VerificationError(
            f"golden corpus version {corpus.get('version')!r} != expected "
            f"{CORPUS_VERSION}; {REGENERATE_HINT}"
        )
    for entry in corpus["entries"]:
        if not isinstance(entry, dict) or not {"name", "kind", "tolerance", "metrics"} <= set(entry):
            raise VerificationError(
                f"malformed golden corpus entry {entry!r}; {REGENERATE_HINT}"
            )
    return corpus


def check_corpus(path: Optional[Path] = None) -> List[CheckResult]:
    """Recompute the corpus and diff every metric against the locked values.

    Returns one :class:`CheckResult` per (entry, metric); a missing or
    extra entry/metric fails with a structural detail message. The
    ``drift`` field is the regression figure to watch: a metric sitting
    at 0.9 of its band passes today and flakes tomorrow.
    """
    locked = load_corpus(path)
    current = generate_corpus()
    locked_entries = {e["name"]: e for e in locked["entries"]}
    current_entries = {e["name"]: e for e in current["entries"]}
    results: List[CheckResult] = []

    for name in sorted(set(locked_entries) | set(current_entries)):
        if name not in current_entries:
            results.append(
                _structural_failure(
                    name, "entry no longer generated by the current code"
                )
            )
            continue
        if name not in locked_entries:
            results.append(
                _structural_failure(name, "entry missing from the locked corpus")
            )
            continue
        locked_entry = locked_entries[name]
        current_entry = current_entries[name]
        tolerance = float(locked_entry["tolerance"])
        locked_metrics = locked_entry["metrics"]
        current_metrics = current_entry["metrics"]
        for metric in sorted(set(locked_metrics) | set(current_metrics)):
            if metric not in current_metrics or metric not in locked_metrics:
                side = "current run" if metric not in current_metrics else "locked corpus"
                results.append(
                    _structural_failure(name, f"metric {metric!r} absent from {side}")
                )
                continue
            results.append(
                compare(
                    "golden-corpus",
                    name,
                    metric,
                    Estimate(float(locked_metrics[metric]), source="locked"),
                    Estimate(float(current_metrics[metric]), source="current"),
                    abs_floor=tolerance,
                    slack=0.0,
                    detail=REGENERATE_HINT,
                )
            )
    return results


def _structural_failure(name: str, what: str) -> CheckResult:
    return CheckResult(
        check="golden-corpus",
        case=name,
        metric="structure",
        value_a=float("nan"),
        value_b=float("nan"),
        tolerance=0.0,
        passed=False,
        diff=float("inf"),
        drift=float("inf"),
        detail=f"{what}; {REGENERATE_HINT}",
    )
