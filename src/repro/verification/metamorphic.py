"""Metamorphic relations: identities the availability algebra must obey.

Differential pairs catch engines disagreeing with *each other*; the
relations here catch the whole stack agreeing on a wrong answer. Each is
an executable property derived from the paper's model, evaluated on the
closed-form engine at a case's parameter point:

- **reliability-monotonicity-sites / -links** — making any component more
  reliable can only help: ``A(alpha, q_r)`` is non-decreasing in the
  site reliability ``p`` and the link reliability ``r``, pointwise over
  the whole feasible curve.
- **alpha-symmetry** — with symmetric access densities (``r(v) = w(v)``,
  the paper's uniform-access setting), swapping the roles of reads and
  writes is a no-op: ``A(alpha, q_r) = A(1 - alpha, T - q_r + 1)``
  exactly, for every ``q_r`` in ``1..T``.
- **alpha-extremes** — the model degenerates correctly at the ends of
  the access mix: at ``alpha = 1`` the objective is ``R(q_r)`` alone and
  the optimum is the ROWA assignment ``q_r = 1`` (hence ``q_w = T``,
  write-all); at ``alpha = 0`` it is ``W(T - q_r + 1)`` alone and the
  optimum sits at the write-optimal end ``q_r = floor(T/2)``.
- **relabeling-invariance** — site identity is bookkeeping: permuting
  site labels (with heterogeneous per-site reliabilities riding along)
  permutes the enumeration density matrix rows and leaves the optimizer
  output exactly unchanged.
- **shard-alpha-monotonicity / -permutation-invariance /
  -class-duplication** — the per-shard optimizer
  (:mod:`repro.sharding.optimizer`) obeys the grouping algebra: raising
  an item's read fraction never raises its optimal ``q_r`` (decreasing
  differences of the paper objective), permuting item ids permutes the
  plan exactly, and duplicating an item class moves nothing.

Three more state the paper's claims about the optimum (DESIGN.md §9):
**convergence-identity** (§5.3, made exact: ``A(1, q) - A(0, q) =
sum_{k=q}^{T-q} f(k)`` at ``q = floor(T/2)``), **write-floor** (§5.4:
the floor holds and never gains availability) and **upper-envelope**
(§3: ``A* <= alpha R(1) + (1 - alpha) W(floor(T/2) + 1)``).

Every relation returns :class:`~repro.verification.tolerance.CheckResult`
rows where ``value_a`` is the worst observed violation and the tolerance
is the float round-off floor — these are identities, not estimates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analytic import closed_form_density
from repro.analytic.enumeration import enumerate_density_matrix
from repro.quorum.availability import AvailabilityModel, write_availability
from repro.quorum.constraints import optimize_with_write_floor
from repro.quorum.optimizer import optimal_read_quorum
from repro.topology.model import Topology
from repro.verification.cases import VerificationCase
from repro.verification.tolerance import EXACT_FLOOR, CheckResult
from repro.verification.witnesses import inject_bug_model

__all__ = [
    "METAMORPHIC_RELATIONS",
    "run_relation",
    "run_metamorphic",
]

#: Perturbation applied to reliabilities by the monotonicity relations.
_DELTA = 0.03

#: Size caps for the relabeling relation's enumeration instance — it is
#: an oracle check, so it runs on a shrunk copy of large cases. The
#: complete family is capped harder: its link count grows quadratically
#: and enumeration is exponential in sites + links.
_RELABEL_MAX_SITES = {"ring": 6, "bus": 6, "complete": 4}


def _violation_result(
    relation: str,
    case: str,
    metric: str,
    violation: float,
    detail: str = "",
    tolerance: float = EXACT_FLOOR,
) -> CheckResult:
    """A CheckResult for an identity: value_a is the worst violation."""
    violation = float(violation)
    return CheckResult(
        check=relation,
        case=case,
        metric=metric,
        value_a=violation,
        value_b=0.0,
        tolerance=tolerance,
        passed=violation <= tolerance,
        diff=violation,
        drift=violation / tolerance if tolerance > 0 else (
            0.0 if violation == 0.0 else float("inf")
        ),
        detail=detail,
    )


def _build_model(
    case: VerificationCase, p: float, r: float, bug: Optional[str]
) -> AvailabilityModel:
    row = closed_form_density(case.family, case.n_sites, p, r)
    return inject_bug_model(AvailabilityModel(row, row), bug)


# ----------------------------------------------------------------------
# Relations
# ----------------------------------------------------------------------

def _monotonicity(
    case: VerificationCase, bug: Optional[str], component: str
) -> List[CheckResult]:
    """A(alpha, q) must not drop when p (or r) increases."""
    base_p, base_r = case.p, case.r
    if component == "sites":
        grid = [max(base_p - _DELTA, 0.0), base_p, min(base_p + _DELTA, 1.0)]
        models = [_build_model(case, v, base_r, bug) for v in grid]
    else:
        grid = [max(base_r - _DELTA, 0.0), base_r, min(base_r + _DELTA, 1.0)]
        models = [_build_model(case, base_p, v, bug) for v in grid]
    quorums = models[0].feasible_read_quorums()
    worst = 0.0
    worst_at = ""
    for alpha in (0.0, case.alpha, 1.0):
        curves = [
            np.asarray(m.availability(alpha, quorums)) for m in models
        ]
        for lo, hi, v_lo, v_hi in zip(curves, curves[1:], grid, grid[1:]):
            drop = float((lo - hi).max())
            if drop > worst:
                worst = drop
                q_at = int(quorums[int((lo - hi).argmax())])
                worst_at = (
                    f"A(alpha={alpha:g}, q={q_at}) dropped by {drop:.3g} "
                    f"when {component[:-1]} reliability rose {v_lo:g}->{v_hi:g}"
                )
    return [
        _violation_result(
            f"reliability-monotonicity-{component}",
            case.name,
            "max availability drop under reliability increase",
            worst,
            detail=worst_at,
        )
    ]


def _alpha_symmetry(case: VerificationCase, bug: Optional[str]) -> List[CheckResult]:
    """A(alpha, q_r) == A(1 - alpha, T - q_r + 1) for symmetric densities."""
    model = _build_model(case, case.p, case.r, bug)
    T = model.total_votes
    quorums = np.arange(1, T + 1)
    worst = 0.0
    for alpha in (case.alpha, 0.25):
        forward = np.asarray(model.availability(alpha, quorums))
        mirrored = np.asarray(model.availability(1.0 - alpha, T - quorums + 1))
        worst = max(worst, float(np.abs(forward - mirrored).max()))
    return [
        _violation_result(
            "alpha-symmetry",
            case.name,
            "max |A(a, q) - A(1-a, T-q+1)|",
            worst,
            detail=f"read/write swap identity over q_r in 1..{T}",
        )
    ]


def _alpha_extremes(case: VerificationCase, bug: Optional[str]) -> List[CheckResult]:
    """alpha=1 degenerates to ROWA; alpha=0 to the write-optimal end."""
    model = _build_model(case, case.p, case.r, bug)
    quorums = model.feasible_read_quorums()
    read_only = np.abs(
        np.asarray(model.availability(1.0, quorums))
        - np.asarray(model.read_availability(quorums))
    ).max()
    write_only = np.abs(
        np.asarray(model.availability(0.0, quorums))
        - np.asarray(model.write_availability_at(quorums))
    ).max()
    rowa = optimal_read_quorum(model, 1.0)
    rowa_gap = abs(rowa.availability - float(model.read_availability(1)))
    rowa_gap = max(rowa_gap, float(rowa.read_quorum != 1))
    write_opt = optimal_read_quorum(model, 0.0)
    write_gap = abs(
        write_opt.availability
        - float(model.write_availability_at(model.max_read_quorum))
    )
    return [
        _violation_result(
            "alpha-extremes",
            case.name,
            "max |A(1,q) - R(q)| over feasible q",
            float(read_only),
            detail="pure-read mix must ignore the write density",
        ),
        _violation_result(
            "alpha-extremes",
            case.name,
            "max |A(0,q) - W(T-q+1)| over feasible q",
            float(write_only),
            detail="pure-write mix must ignore the read density",
        ),
        _violation_result(
            "alpha-extremes",
            case.name,
            "ROWA degeneration at alpha=1",
            float(rowa_gap),
            detail=f"optimum q_r={rowa.read_quorum} (want 1, i.e. q_w=T write-all), "
            f"A*={rowa.availability:.6g} (want R(1))",
        ),
        _violation_result(
            "alpha-extremes",
            case.name,
            "write-optimal degeneration at alpha=0",
            float(write_gap),
            detail=f"A* must equal W at the smallest feasible write quorum "
            f"(q_r={model.max_read_quorum})",
        ),
    ]


def _convergence(case: VerificationCase, bug: Optional[str]) -> List[CheckResult]:
    """At ``q = floor(T/2)`` the pure-read and pure-write curves differ by
    exactly the density mass of the middle band ``q..T-q``."""
    model = _build_model(case, case.p, case.r, bug)
    q = model.max_read_quorum
    spread = float(model.availability(1.0, q)) - float(model.availability(0.0, q))
    band = float(model.read_density[q:model.total_votes - q + 1].sum())
    return [_violation_result(
        "convergence-identity", case.name,
        "|A(1,q) - A(0,q) - sum f(q..T-q)| at q = floor(T/2)",
        abs(spread - band), detail=f"spread {spread:.6g}, band mass {band:.6g}",
    )]


def _write_floor(case: VerificationCase, bug: Optional[str]) -> List[CheckResult]:
    """The floor holds, ``A(0, q_r) >= A_w``, and costs (never gains)
    availability, for floors from 0 to the best any quorum meets."""
    model = _build_model(case, case.p, case.r, bug)
    free = optimal_read_quorum(model, case.alpha).availability
    top = float(model.write_availability_at(model.max_read_quorum))
    worst = 0.0
    for floor in (0.0, 0.5 * top, top):
        floored = optimize_with_write_floor(model, case.alpha, floor)
        met = float(model.availability(0.0, floored.read_quorum))
        worst = max(worst, floor - met, floored.availability - free)
    return [_violation_result(
        "write-floor", case.name,
        "max of A_w - A(0, q_r) and A*(floor) - A*(free)", worst,
        detail=f"floors up to {top:.6g}, unconstrained A*={free:.6g}",
    )]


def _upper_envelope(case: VerificationCase, bug: Optional[str]) -> List[CheckResult]:
    """``A*`` never beats the best read term and the best write term at once."""
    model = _build_model(case, case.p, case.r, bug)
    read = float(model.read_availability(1))
    write = float(write_availability(model.write_density, model.total_votes // 2 + 1))
    worst = max(
        optimal_read_quorum(model, a).availability - (a * read + (1.0 - a) * write)
        for a in (0.0, 0.25, 0.5, 0.75, 1.0, case.alpha)
    )
    return [_violation_result(
        "upper-envelope", case.name,
        "max A* - (alpha R(1) + (1-alpha) W(floor(T/2)+1))", max(worst, 0.0),
        detail=f"R(1)={read:.6g}, W(floor(T/2)+1)={write:.6g}",
    )]


def _permuted_topology(
    topology: Topology, perm: np.ndarray
) -> Topology:
    links = [(int(perm[l.a]), int(perm[l.b])) for l in topology.links]
    votes = np.empty(topology.n_sites, dtype=np.int64)
    votes[perm] = topology.votes
    return Topology(topology.n_sites, links, votes=votes)


def _relabeling(case: VerificationCase, bug: Optional[str]) -> List[CheckResult]:
    """Enumeration + optimizer must be invariant under site relabeling.

    Runs on a shrunk copy of the case (enumeration is the oracle here and
    must stay cheap) with a heterogeneous site-reliability ramp — the
    regime where a hidden dependence on site order would actually bite.
    The bus hub, when present, keeps its label: it is infrastructure, not
    a replica site.
    """
    n = min(case.n_sites, _RELABEL_MAX_SITES[case.family])
    small = VerificationCase(
        name=case.name,
        family=case.family,
        n_sites=n,
        p=case.p,
        r=case.r,
        alpha=case.alpha,
        read_quorums=(1,),
        seed=case.seed,
    )
    topology = small.topology()
    site_rel = small.site_reliabilities().copy()
    # Heterogeneous ramp over the real (voting) sites only.
    ramp = np.linspace(-0.06, 0.06, n)
    site_rel[:n] = np.clip(site_rel[:n] + ramp, 0.05, 0.995)
    link_rel = small.link_reliabilities()

    rng = np.random.default_rng(small.seed + 17)
    perm = np.arange(topology.n_sites)
    perm[:n] = rng.permutation(n)  # hub (if any) keeps its label

    permuted = _permuted_topology(topology, perm)
    site_rel_perm = np.empty_like(site_rel)
    site_rel_perm[perm] = site_rel
    # Per-link reliabilities follow the links they label.
    link_rel_perm = np.empty(permuted.n_links)
    for link in topology.links:
        source = topology.link_id(link.a, link.b)
        target = permuted.link_id(int(perm[link.a]), int(perm[link.b]))
        link_rel_perm[target] = link_rel[source]

    matrix = enumerate_density_matrix(topology, site_rel, link_rel)
    matrix_perm = enumerate_density_matrix(permuted, site_rel_perm, link_rel_perm)
    row_gap = float(np.abs(matrix_perm[perm] - matrix).max())

    model = inject_bug_model(
        AvailabilityModel.from_density_matrix(matrix[:n]), bug
    )
    model_perm = inject_bug_model(
        AvailabilityModel.from_density_matrix(matrix_perm[perm][:n]), bug
    )
    best = optimal_read_quorum(model, small.alpha)
    best_perm = optimal_read_quorum(model_perm, small.alpha)
    opt_gap = max(
        abs(best.availability - best_perm.availability),
        float(best.read_quorum != best_perm.read_quorum),
    )
    return [
        _violation_result(
            "relabeling-invariance",
            case.name,
            "max density-matrix row gap under permutation",
            row_gap,
            detail=f"{n}-site {case.family} with heterogeneous p, seed {small.seed}",
        ),
        _violation_result(
            "relabeling-invariance",
            case.name,
            "optimizer output gap under permutation",
            opt_gap,
            detail=f"q*={best.read_quorum} vs {best_perm.read_quorum}, "
            f"A*={best.availability:.6g} vs {best_perm.availability:.6g}",
        ),
    ]


# ----------------------------------------------------------------------
# Sharded-optimizer relations (the per-class grouping of repro.sharding)
# ----------------------------------------------------------------------

def _shard_plan(case: VerificationCase, alphas: np.ndarray, bug: Optional[str]):
    """Per-shard optimization on the case's closed-form density.

    The density row short-circuits the per-group density computation, so
    these relations are deterministic, cheap (microseconds), and carry
    the injected bug through ``model_transform`` exactly like the
    single-item relations above.
    """
    from repro.sharding.optimizer import optimize_shards

    row = closed_form_density(case.family, case.n_sites, case.p, case.r)
    plan = optimize_shards(
        case.topology(),
        alphas,
        density=row,
        model_transform=lambda m: inject_bug_model(m, bug),
    )
    return plan, inject_bug_model(AvailabilityModel(row, row), bug)


def _shard_alpha_monotonicity(
    case: VerificationCase, bug: Optional[str]
) -> List[CheckResult]:
    """Raising an item's read fraction never raises its optimal ``q_r``.

    ``A(alpha, q) = alpha R(q) + (1-alpha) W(T-q+1)`` has decreasing
    differences in ``(q, alpha)`` — ``R`` falls and ``W(T-q+1)`` rises
    with ``q`` — so the argmax moves weakly toward smaller read quorums
    as ``alpha`` grows. Exact float ties may still flip the integer
    argmax, so the violation is measured in availability units: how much
    the model claims a *larger* quorum strictly beats the hotter item's
    smaller one (zero up to round-off on healthy code).
    """
    alphas = np.unique(np.clip([0.05, 0.25, case.alpha, 0.75, 0.95], 0.0, 1.0))
    plan, model = _shard_plan(case, alphas, bug)
    q = plan.read_quorums
    worst = 0.0
    worst_at = "optimized q_r non-increasing over sorted item alphas"
    for i in range(len(alphas) - 1):
        if q[i + 1] > q[i]:
            gain = float(
                np.asarray(model.availability(float(alphas[i + 1]), int(q[i + 1])))
                - np.asarray(model.availability(float(alphas[i + 1]), int(q[i])))
            )
            if gain > worst:
                worst = gain
                worst_at = (
                    f"q_r rose {int(q[i])}->{int(q[i + 1])} as alpha rose "
                    f"{alphas[i]:g}->{alphas[i + 1]:g}"
                )
    return [
        _violation_result(
            "shard-alpha-monotonicity",
            case.name,
            "objective gain from a q_r increase under rising alpha",
            worst,
            detail=worst_at,
        )
    ]


def _shard_permutation(
    case: VerificationCase, bug: Optional[str]
) -> List[CheckResult]:
    """Permuting item ids permutes the per-shard optimization results.

    All groups share one seed (common random numbers), so the plan for a
    shuffled item vector must be exactly the shuffled plan — quorums and
    availabilities alike.
    """
    alphas = np.clip(np.asarray([0.2, 0.5, 0.8, case.alpha, 0.5]), 0.0, 1.0)
    rng = np.random.default_rng(case.seed + 23)
    perm = rng.permutation(alphas.shape[0])
    plan, _ = _shard_plan(case, alphas, bug)
    plan_perm, _ = _shard_plan(case, alphas[perm], bug)
    gap = max(
        float(np.abs(plan_perm.read_quorums - plan.read_quorums[perm]).max()),
        float(
            np.abs(plan_perm.availabilities - plan.availabilities[perm]).max()
        ),
    )
    return [
        _violation_result(
            "shard-permutation-invariance",
            case.name,
            "max per-item assignment gap under id permutation",
            gap,
            detail=f"{alphas.shape[0]} items shuffled with seed {case.seed + 23}",
        )
    ]


def _shard_duplication(
    case: VerificationCase, bug: Optional[str]
) -> List[CheckResult]:
    """Duplicating an item class changes no per-class assignment.

    The optimizer runs once per ``(alpha, votes)`` class; adding more
    members to an existing class must neither re-run anything nor move
    any item's ``(q_r*, A*)``.
    """
    alphas = np.clip(np.asarray([0.2, 0.5, 0.8, case.alpha]), 0.0, 1.0)
    n = alphas.shape[0]
    extended = np.concatenate([alphas, [alphas[1], alphas[3]]])
    base, _ = _shard_plan(case, alphas, bug)
    ext, _ = _shard_plan(case, extended, bug)
    gap = max(
        float(np.abs(ext.read_quorums[:n] - base.read_quorums).max()),
        float(np.abs(ext.availabilities[:n] - base.availabilities).max()),
        float(ext.read_quorums[n] != ext.read_quorums[1]),
        float(ext.read_quorums[n + 1] != ext.read_quorums[3]),
        float(ext.optimizations_run != base.optimizations_run),
    )
    return [
        _violation_result(
            "shard-class-duplication",
            case.name,
            "max assignment gap after duplicating item classes",
            gap,
            detail=f"{base.optimizations_run} classes before and after "
            f"duplication ({ext.optimizations_run} after)",
        )
    ]


_RELATIONS: Dict[str, Callable[[VerificationCase, Optional[str]], List[CheckResult]]] = {
    "reliability-monotonicity-sites": lambda c, b: _monotonicity(c, b, "sites"),
    "reliability-monotonicity-links": lambda c, b: _monotonicity(c, b, "links"),
    "alpha-symmetry": _alpha_symmetry,
    "alpha-extremes": _alpha_extremes,
    "convergence-identity": _convergence,
    "write-floor": _write_floor,
    "upper-envelope": _upper_envelope,
    "relabeling-invariance": _relabeling,
    "shard-alpha-monotonicity": _shard_alpha_monotonicity,
    "shard-permutation-invariance": _shard_permutation,
    "shard-class-duplication": _shard_duplication,
}

METAMORPHIC_RELATIONS: Tuple[str, ...] = tuple(_RELATIONS)


def run_relation(
    name: str, case: VerificationCase, bug: Optional[str] = None
) -> List[CheckResult]:
    """Evaluate one named relation on one case."""
    if name not in _RELATIONS:
        from repro.errors import VerificationError

        raise VerificationError(
            f"unknown metamorphic relation {name!r}; known: "
            f"{list(METAMORPHIC_RELATIONS)}"
        )
    return _RELATIONS[name](case, bug)


def run_metamorphic(
    case: VerificationCase, bug: Optional[str] = None
) -> List[CheckResult]:
    """Evaluate every relation on one case."""
    results: List[CheckResult] = []
    for name in METAMORPHIC_RELATIONS:
        results.extend(run_relation(name, case, bug))
    return results
