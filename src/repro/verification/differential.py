"""The differential runner: every applicable engine pair, every relation.

``run_profile`` takes a profile name and produces a
:class:`VerificationReport` covering three layers of evidence:

1. **Cross-engine pairs** — for each case, every pair of applicable
   engines is compared metric-by-metric with CI-aware tolerances. The
   model-producing witnesses of :mod:`repro.verification.witnesses`
   (closed form, collapse-DFS enumeration, its exact-order witness
   ``enum-exact-order``, plain Monte-Carlo, and its stratified variant
   ``mc-stratified``) are crossed all-pairs; on top of that ride
   closed-form vs simulation (ACC at the simulated quorum and the whole
   vote density, plus section 3's one-sided ``acc-ceiling``), simulation
   vs parallel fan-out (bitwise), the simulator's pooled accounting vs
   the telemetry audit log (exact), the static quorum-consensus protocol
   vs the QR reassignment protocol (grant-mask differential over sampled
   network states), and the vectorized sharded engine vs its per-item
   reference loop (bitwise).
2. **Metamorphic relations** — the identities of
   :mod:`repro.verification.metamorphic`.
3. **Golden corpus** — drift against the locked reference results
   (optional; the CLI includes it, unit tests exercise it separately).

``--inject-bug`` threads a deliberate defect into the closed-form engine
before the run; a healthy harness must then *fail*. This is the
verification of the verifier the acceptance gate demands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.telemetry.recorder import current as _current_telemetry
from repro.verification.cases import VerificationCase, profile_cases
from repro.verification.golden import check_corpus
from repro.verification.metamorphic import run_metamorphic
from repro.verification.tolerance import CheckResult, Estimate, compare
from repro.verification.witnesses import (
    closed_form_engine,
    enum_exact_order_engine,
    enumeration_engine,
    grant_mask_mismatch,
    montecarlo_engine,
    simulation_engine_run,
    stratified_mc_engine,
    with_injected_bug,
)

__all__ = ["MODEL_ENGINES", "ENGINE_PAIRS", "VerificationReport",
           "run_case", "run_profile"]

#: ``(name, builder)`` of the model-producing witnesses the runner
#: crosses all-pairs, cheapest first (``closed-form`` is the
#: bug-injection target; the others are independent witnesses).
MODEL_ENGINES = (
    ("closed-form", closed_form_engine),
    ("enumeration", enumeration_engine),
    ("enum-exact-order", enum_exact_order_engine),
    ("monte-carlo", montecarlo_engine),
    ("mc-stratified", stratified_mc_engine),
)

#: Tighter absolute floors for specific exact-vs-exact pairs. The
#: collapse-DFS must agree with its exact-order witness to ≤1e-12
#: (DESIGN.md §15) — far below the default exact floor the statistical
#: engines share.
_PAIR_FLOORS = {
    frozenset({"enumeration", "enum-exact-order"}): 1e-12,
}

#: Engine-pair identifiers the runner can emit (the acceptance gate
#: counts distinct pairs actually exercised): all model-engine pairs
#: plus the simulation- and protocol-level differentials.
ENGINE_PAIRS = tuple(
    f"{a}|{b}"
    for i, (a, _) in enumerate(MODEL_ENGINES)
    for b, _ in MODEL_ENGINES[i + 1:]
) + (
    "closed-form|simulation",
    "simulation|parallel",
    "simulation|audit",
    "static|reassignment",
    "sharded|per-item-reference",
)


@dataclass
class VerificationReport:
    """Everything one verification run established."""

    profile: str
    results: List[CheckResult] = field(default_factory=list)
    injected_bug: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if not r.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def engine_pairs(self) -> Tuple[str, ...]:
        """Distinct cross-engine pairs actually exercised."""
        seen = {r.check for r in self.results}
        return tuple(p for p in ENGINE_PAIRS if p in seen)

    @property
    def relations(self) -> Tuple[str, ...]:
        """Distinct metamorphic relations actually exercised."""
        pairs = set(ENGINE_PAIRS) | {"golden-corpus"}
        return tuple(sorted({r.check for r in self.results} - pairs))

    @property
    def cases(self) -> Tuple[str, ...]:
        return tuple(sorted({r.case for r in self.results}))

    def worst_drift(self, top: int = 5) -> List[CheckResult]:
        """The checks closest to (or past) their tolerance band."""
        return sorted(self.results, key=lambda r: r.drift, reverse=True)[:top]

    # ------------------------------------------------------------------
    def summary(self, drift_top: int = 5) -> str:
        """Human-readable report: verdict, coverage, failures, drift."""
        lines = [
            f"verification profile {self.profile!r}: "
            f"{len(self.results)} checks, {len(self.failures)} failed"
            + (f" [injected bug: {self.injected_bug}]" if self.injected_bug else ""),
            f"  cases: {', '.join(self.cases)}",
            f"  engine pairs ({len(self.engine_pairs)}): "
            + ", ".join(self.engine_pairs),
            f"  metamorphic relations ({len(self.relations)}): "
            + ", ".join(self.relations),
        ]
        if self.failures:
            lines.append("failures:")
            for r in self.failures:
                lines.append(f"  {r}")
                if r.detail:
                    lines.append(f"      {r.detail}")
        lines.append(f"highest drift (top {drift_top}):")
        for r in self.worst_drift(drift_top):
            lines.append(f"  {r}")
        return "\n".join(lines)


# ----------------------------------------------------------------------

def _model_pair_checks(
    case: VerificationCase, bug: Optional[str]
) -> List[CheckResult]:
    """Cross every applicable model-producing engine on one case.

    A witness that returns ``None`` (enumeration past its state cap) is
    skipped. The injected bug, when
    requested, is wired into the closed-form engine only — every other
    engine is an independent witness that must then disagree.
    """
    engines = []
    for name, build in MODEL_ENGINES:
        engine = build(case)
        if engine is None:
            continue
        if name == "closed-form":
            engine = with_injected_bug(engine, bug)
        engines.append(engine)
    estimates = {e.name: e.availability_estimates(case) for e in engines}
    results: List[CheckResult] = []
    names = [e.name for e in engines]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            floor = _PAIR_FLOORS.get(frozenset({a, b}))
            kwargs = {} if floor is None else {
                "abs_floor": floor,
                "detail": "enumeration-kernel differential tier "
                          f"(abs_floor={floor:g})",
            }
            for metric in estimates[a]:
                results.append(
                    compare(f"{a}|{b}", case.name, metric,
                            estimates[a][metric], estimates[b][metric],
                            **kwargs)
                )
    return results


def _simulation_checks(
    case: VerificationCase, bug: Optional[str]
) -> List[CheckResult]:
    """Simulation-backed pairs: model vs ACC, bitwise parallel, audit."""
    if case.sim_read_quorum is None:
        return []
    results: List[CheckResult] = []
    serial = simulation_engine_run(case, n_workers=1, with_telemetry=True)
    parallel = simulation_engine_run(case, n_workers=2)

    closed = with_injected_bug(closed_form_engine(case), bug)
    expected = float(closed.model.availability(case.alpha, case.sim_read_quorum))
    results.append(
        compare(
            "closed-form|simulation",
            case.name,
            f"ACC(q={case.sim_read_quorum})",
            Estimate(expected, source="closed-form"),
            serial.acc,
            # Batch means are mildly correlated through failure epochs, so
            # the t-interval alone slightly understates the spread; a small
            # absolute floor absorbs that residual.
            abs_floor=5e-3,
            detail="batch-means Student-t interval vs analytic value",
        )
    )

    # The whole simulated vote density, not only its tail at one quorum.
    for k, (exact, simulated) in enumerate(zip(closed.model.read_density,
                                               serial.density)):
        results.append(
            compare(
                "closed-form|simulation",
                case.name,
                f"f({k})",
                Estimate(float(exact), source="closed-form"),
                simulated,
                abs_floor=5e-3,
                detail="time-weighted vote density of an arbitrary site",
            )
        )

    # Section 3: the submitting site must be up, so no protocol's ACC
    # exceeds the site reliability. One-sided: only an excess counts.
    excess = max(serial.pooled_acc - case.p, 0.0)
    results.append(compare(
        "acc-ceiling", case.name, "pooled ACC above site reliability p",
        Estimate(excess, serial.acc.half_width), Estimate(0.0), abs_floor=5e-3,
        detail=f"pooled ACC {serial.pooled_acc:.6g}, p = {case.p:g}",
    ))

    # Parallel fan-out is contractually bitwise identical to serial.
    for i, (a, b) in enumerate(zip(serial.batch_acc, parallel.batch_acc)):
        results.append(
            compare(
                "simulation|parallel",
                case.name,
                f"batch-ACC[{i}]",
                Estimate(a, source="serial"),
                Estimate(b, source="parallel(x2)"),
                abs_floor=0.0,
                detail="determinism contract: n_workers must not change results",
            )
        )
    results.append(
        compare(
            "simulation|parallel",
            case.name,
            "SURV",
            Estimate(serial.surv.value, source="serial"),
            Estimate(parallel.surv.value, source="parallel(x2)"),
            abs_floor=0.0,
        )
    )

    # The audit log accumulates grants/submissions independently of the
    # batch accounting; the two ACC figures must reconcile exactly.
    results.append(
        compare(
            "simulation|audit",
            case.name,
            "pooled ACC",
            Estimate(serial.pooled_acc, source="batch accounting"),
            Estimate(float(serial.audit_acc), source="telemetry audit"),
            detail="audit log vs batch accounting reconciliation",
        )
    )
    return results


def _protocol_checks(case: VerificationCase) -> List[CheckResult]:
    """Static quorum consensus vs never-reassigning QR protocol."""
    fraction, n_states = grant_mask_mismatch(case)
    return [
        compare(
            "static|reassignment",
            case.name,
            "grant-mask mismatch fraction",
            Estimate(fraction, source="differential"),
            Estimate(0.0, source="expected"),
            detail=f"QR with no reassignment must match static grants "
            f"exactly over {n_states} sampled network states",
        )
    ]


def _sharded_checks(case: VerificationCase) -> List[CheckResult]:
    """Vectorized N-item engine vs the per-item reference loop.

    Builds a three-item Zipf shard config on the case's network and
    failure process and demands *bitwise* agreement (``abs_floor=0``) on
    per-item access counts, survivability times, and the density tables
    — the sharded engine's core contract, checked here on every
    simulation-backed case rather than only in the unit battery.
    """
    if case.sim_read_quorum is None:
        return []
    import numpy as np

    from repro.sharding import ItemWorkload, ShardConfig, run_sharded

    sim = case.simulation_config()
    alphas = np.clip(
        [case.alpha - 0.25, case.alpha, case.alpha + 0.25], 0.0, 1.0
    )
    workload = ItemWorkload.zipf(3, sim.topology.n_sites, alphas, exponent=1.0)
    config = ShardConfig.from_simulation(
        sim,
        workload,
        read_quorums=np.full(3, case.sim_read_quorum, dtype=np.int64),
        warmup_accesses=0.0,
        accesses_per_batch=1_500.0,
        n_batches=2,
    )
    vec = run_sharded(config, engine="vectorized")
    ref = run_sharded(config, engine="reference")

    values = [
        (f"item-ACC[{item}]", vec.item_availability[item],
         ref.item_availability[item])
        for item in range(config.n_items)
    ] + [
        ("SURV(read)", vec.surv_read.sum(), ref.surv_read.sum()),
        ("SURV(write)", vec.surv_write.sum(), ref.surv_write.sum()),
        ("density max|diff|",
         np.abs(vec.density_time() - ref.density_time()).max(), 0.0),
    ]
    return [
        compare(
            "sharded|per-item-reference", case.name, metric,
            Estimate(float(a), source="sharded"),
            Estimate(float(b), source="per-item-reference"),
            abs_floor=0.0,
            detail="bitwise contract: one shared labelling vs the per-item loop",
        )
        for metric, a, b in values
    ]


def run_case(case: VerificationCase, bug: Optional[str] = None) -> List[CheckResult]:
    """Every applicable check on one case (pairs + relations)."""
    telemetry = _current_telemetry()
    with telemetry.span("verify.case", case=case.name):
        results = _model_pair_checks(case, bug)
        results.extend(_simulation_checks(case, bug))
        results.extend(_protocol_checks(case))
        results.extend(_sharded_checks(case))
        results.extend(run_metamorphic(case, bug))
    return results


def run_profile(
    profile: str,
    bug: Optional[str] = None,
    golden: bool = False,
) -> VerificationReport:
    """Run the full differential battery for a named profile."""
    report = VerificationReport(profile=profile, injected_bug=bug)
    for case in profile_cases(profile):
        report.results.extend(run_case(case, bug))
    if golden:
        report.results.extend(check_corpus())
    return report
