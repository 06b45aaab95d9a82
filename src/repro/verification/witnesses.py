"""The differential battery's witnesses: each backend, run on one case.

Every availability backend the repo implements — closed forms, exact
state enumeration (the collapse-DFS), static Monte-Carlo plus its
stratified variant, and the
discrete-event simulator with its parallel fan-out path — is called
here on a :class:`~repro.verification.cases.VerificationCase`.

Model witnesses report :class:`~repro.verification.tolerance.Estimate`
values with honest uncertainty, so the differential runner can compare
any applicable pair with a CI-derived tolerance instead of an ad-hoc
constant. The bug injection at the bottom wires a deliberate defect into
a model so ``repro verify --inject-bug`` can prove the battery fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analytic import closed_form_density
from repro.analytic.enumeration import MAX_COMPONENTS, enumerate_density_matrix
from repro.analytic.montecarlo import montecarlo_density_matrix
from repro.analytic.variance import stratified_density_matrix
from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.errors import VerificationError
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import optimal_read_quorum
from repro.simulation.runner import SimulationResult, run_simulation
from repro.simulation.stats import BatchStatistics
from repro.telemetry.recorder import Telemetry
from repro.verification.cases import VerificationCase
from repro.verification.tolerance import (
    Estimate,
    binomial_half_width,
    students_t_estimate,
)

__all__ = [
    "ModelEngine",
    "SimulationEngineRun",
    "closed_form_engine",
    "enumeration_engine",
    "montecarlo_engine",
    "stratified_mc_engine",
    "simulation_engine_run",
    "grant_mask_mismatch",
    "OffByOneModel",
    "KNOWN_BUGS",
    "inject_bug_model",
    "with_injected_bug",
]


# ----------------------------------------------------------------------
# Model-producing engines (closed form / enumeration / Monte-Carlo)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModelEngine:
    """An engine that produced a Figure-1 availability model.

    ``half_width_at(value)`` converts the engine's sampling budget into
    the 95 % CI half-width of one availability estimate; exact engines
    return 0.
    """

    name: str
    model: AvailabilityModel
    #: Monte-Carlo sample count; ``None`` marks an exact engine.
    n_samples: Optional[int] = None

    def half_width_at(self, value: float) -> float:
        if self.n_samples is None:
            return 0.0
        return binomial_half_width(value, self.n_samples)

    def availability_estimates(
        self, case: VerificationCase
    ) -> Dict[str, Estimate]:
        """``A(alpha, q)`` at the case's quorums, plus the optimum value.

        The optimal *value* ``A*`` is comparable across engines even when
        a flat curve makes the arg-max ``q*`` ambiguous under noise, so
        ``q*`` is reported separately (exact engines only compare it).
        """
        out: Dict[str, Estimate] = {}
        for q in case.read_quorums:
            value = float(np.asarray(self.model.availability(case.alpha, int(q))))
            out[f"A(q={q})"] = Estimate(
                value, self.half_width_at(value), self.n_samples, self.name
            )
        best = optimal_read_quorum(self.model, case.alpha)
        out["A*"] = Estimate(
            best.availability,
            self.half_width_at(best.availability),
            self.n_samples,
            self.name,
        )
        out["q*"] = Estimate(
            float(best.assignment.read_quorum), 0.0, None, self.name
        )
        return out


def closed_form_engine(case: VerificationCase) -> ModelEngine:
    """Section 4.2 closed form for the case's family (exact)."""
    row = closed_form_density(case.family, case.n_sites, case.p, case.r)
    return ModelEngine("closed-form", AvailabilityModel(row, row))


def _case_free_components(case: VerificationCase) -> int:
    site_rel = case.site_reliabilities()
    link_rel = case.link_reliabilities()
    return int(((site_rel > 0) & (site_rel < 1)).sum()
               + ((link_rel > 0) & (link_rel < 1)).sum())


def enumeration_engine(case: VerificationCase) -> Optional[ModelEngine]:
    """Exhaustive state enumeration (exact) through the collapse-DFS;
    ``None`` past 2^28 states.

    For the bus family, only the real (voting) sites' rows enter the
    model — the zero-vote hub submits no accesses.
    """
    if _case_free_components(case) > MAX_COMPONENTS:
        return None
    matrix = enumerate_density_matrix(
        case.topology(), case.site_reliabilities(), case.link_reliabilities()
    )
    model = AvailabilityModel.from_density_matrix(matrix[: case.n_sites])
    return ModelEngine("enumeration", model)


def montecarlo_engine(case: VerificationCase) -> ModelEngine:
    """Seeded static Monte-Carlo estimation (statistical)."""
    matrix = montecarlo_density_matrix(
        case.topology(),
        case.site_reliabilities(),
        case.link_reliabilities(),
        n_samples=case.mc_samples,
        seed=case.seed,
    )
    model = AvailabilityModel.from_density_matrix(matrix[: case.n_sites])
    return ModelEngine("monte-carlo", model, n_samples=case.mc_samples)


def stratified_mc_engine(case: VerificationCase) -> ModelEngine:
    """Failure-count-stratified Monte-Carlo (variance-reduced)."""
    matrix = stratified_density_matrix(
        case.topology(),
        case.site_reliabilities(),
        case.link_reliabilities(),
        n_samples=case.mc_samples,
        seed=case.seed,
    )
    model = AvailabilityModel.from_density_matrix(matrix[: case.n_sites])
    return ModelEngine("mc-stratified", model, n_samples=case.mc_samples)


# ----------------------------------------------------------------------
# Simulation-backed engines
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationEngineRun:
    """One simulated campaign reduced to comparable estimates.

    ``acc``/``surv`` carry batch-means Student-t half-widths;
    ``batch_acc``/``batch_surv`` are the raw per-batch values used for
    the bitwise serial-vs-parallel determinism contract; ``pooled_acc``
    and ``audit_acc`` are the exact volume ratios the audit-reconciliation
    check compares. ``density[k]`` is the time-weighted probability that
    an arbitrary voting site's component holds ``k`` votes, with its
    batch-means half-width.
    """

    name: str
    acc: Estimate
    surv: Estimate
    batch_acc: Tuple[float, ...]
    batch_surv: Tuple[float, ...]
    pooled_acc: float
    audit_acc: Optional[float]
    density: Tuple[Estimate, ...]


def _pooled_acc(result: SimulationResult) -> float:
    submitted = sum(b.accesses_submitted for b in result.batches)
    granted = sum(b.accesses_granted for b in result.batches)
    return granted / submitted if submitted > 0 else 0.0


def simulation_engine_run(
    case: VerificationCase,
    n_workers: int = 1,
    with_telemetry: bool = False,
) -> SimulationEngineRun:
    """Run the case's quorum-consensus protocol through the simulator.

    ``n_workers > 1`` exercises the parallel fan-out path, which is
    contractually bitwise identical to the serial run. With
    ``with_telemetry`` the run records the quorum-decision audit log and
    reports its independently-accumulated ACC for exact reconciliation.
    """
    if case.sim_read_quorum is None:
        raise _no_sim_error(case)
    config = case.simulation_config()
    protocol = QuorumConsensusProtocol(
        QuorumAssignment.from_read_quorum(case.total_votes, case.sim_read_quorum)
    )
    telemetry = Telemetry() if with_telemetry else None
    result = run_simulation(
        config, protocol, telemetry=telemetry, n_workers=n_workers
    )
    name = "simulation" if n_workers == 1 else f"parallel(x{n_workers})"
    surv_stats = result.surv_statistics(case.alpha)
    audit_acc = None
    if result.telemetry is not None:
        audit_acc = float(result.telemetry.audit_availability())
    batch_density = np.array([
        b.density_time.density_matrix()[: case.n_sites].mean(axis=0)
        for b in result.batches
    ])
    return SimulationEngineRun(
        name=name,
        acc=students_t_estimate(result.availability, source=name),
        surv=students_t_estimate(surv_stats, source=name),
        batch_acc=tuple(b.availability for b in result.batches),
        batch_surv=tuple(
            case.alpha * b.surv_read + (1.0 - case.alpha) * b.surv_write
            for b in result.batches
        ),
        pooled_acc=_pooled_acc(result),
        audit_acc=audit_acc,
        density=tuple(
            students_t_estimate(BatchStatistics(f"f({k})", tuple(column)), name)
            for k, column in enumerate(batch_density.T)
        ),
    )


def _no_sim_error(case: VerificationCase):
    return VerificationError(
        f"case {case.name} has no sim_read_quorum; simulation engines do not apply"
    )


# ----------------------------------------------------------------------
# Protocol-level differential: static quorum consensus vs QR
# ----------------------------------------------------------------------

def grant_mask_mismatch(case: VerificationCase) -> Tuple[float, int]:
    """Fraction of sampled network states where QR and static grants differ.

    A :class:`QuorumReassignmentProtocol` that never installs a new
    assignment must grant exactly what the static
    :class:`QuorumConsensusProtocol` grants in every reachable network
    state — the stale-config machinery must be invisible when there is
    nothing stale. Samples ``case.protocol_states`` stationary states and
    compares both protocols' read/write grant masks; returns the mismatch
    fraction (0.0 when the protocols agree everywhere) and the number of
    states checked.
    """
    topology = case.topology()
    q = case.sim_read_quorum if case.sim_read_quorum is not None else 1
    assignment = QuorumAssignment.from_read_quorum(case.total_votes, q)
    static = QuorumConsensusProtocol(assignment)
    dynamic = QuorumReassignmentProtocol(topology.n_sites, assignment)
    rng = np.random.default_rng(case.seed)
    site_rel = case.site_reliabilities()
    link_rel = case.link_reliabilities()
    mismatches = 0
    for _ in range(case.protocol_states):
        site_up = rng.random(topology.n_sites) < site_rel
        link_up = rng.random(topology.n_links) < link_rel
        tracker = ComponentTracker(NetworkState(topology, site_up, link_up))
        dynamic.reset()
        dynamic.on_network_change(tracker)
        static_masks = static.grant_masks(tracker)
        dynamic_masks = dynamic.grant_masks(tracker)
        if not (
            np.array_equal(static_masks[0], dynamic_masks[0])
            and np.array_equal(static_masks[1], dynamic_masks[1])
        ):
            mismatches += 1
    return mismatches / case.protocol_states, case.protocol_states


# ----------------------------------------------------------------------
# Bug injection (verification of the verifier)
# ----------------------------------------------------------------------

class OffByOneModel(AvailabilityModel):
    """An availability model with a deliberate quorum-threshold off-by-one.

    Evaluates ``A(alpha, q_r + 1)`` wherever ``A(alpha, q_r)`` was asked
    — exactly the bug a ``>=`` vs ``>`` slip in a quorum comparison
    produces. Used by ``repro verify --inject-bug quorum-off-by-one`` to
    demonstrate that the differential harness fails loudly (exit 1) on a
    real divergence rather than absorbing it into its tolerances.
    """

    def availability(self, alpha, read_quorum):
        q = np.asarray(read_quorum, dtype=np.int64)
        shifted = np.minimum(q + 1, self.total_votes)
        if q.ndim == 0:
            shifted = int(shifted)
        return super().availability(alpha, shifted)

    def curve(self, alpha):
        # Route through the broken threshold so optimizer output shifts
        # too (the base class evaluates densities directly).
        return np.asarray(self.availability(alpha, self.feasible_read_quorums()))


#: Deliberate defects `repro verify --inject-bug` can wire into the
#: closed-form engine to prove the harness catches real divergence.
KNOWN_BUGS = ("quorum-off-by-one",)


def inject_bug_model(model: AvailabilityModel, bug: Optional[str]) -> AvailabilityModel:
    """Return ``model`` with the named defect wired in (or unchanged)."""
    if bug is None:
        return model
    if bug == "quorum-off-by-one":
        return OffByOneModel(model.read_density, model.write_density)
    raise VerificationError(
        f"unknown bug injection {bug!r}; known: {list(KNOWN_BUGS)}"
    )


def with_injected_bug(engine: ModelEngine, bug: Optional[str]) -> ModelEngine:
    """Return ``engine`` with the named bug wired in (or unchanged)."""
    if bug is None:
        return engine
    return ModelEngine(
        engine.name, inject_bug_model(engine.model, bug), engine.n_samples
    )
