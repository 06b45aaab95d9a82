"""High-level simulation runner: warm-up, batches, confidence intervals.

:func:`run_simulation` reproduces the paper's measurement procedure: run
``n_batches`` independent batches (optionally continuing until the 95 %
confidence half-width on availability reaches a target, the way the
paper varies 5–18 batches), and aggregate availability metrics plus the
pooled empirical density matrix.

The pooled density matrix is the run's headline by-product: fed through
:class:`~repro.quorum.availability.AvailabilityModel`, a single simulated
run yields the availability of *every* quorum assignment and *every*
read fraction — which is how the benchmark harness regenerates whole
paper figures from a handful of runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import BatchExecutionError, SimulationError
from repro.protocols.base import ReplicaControlProtocol
from repro.quorum.availability import AvailabilityModel
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import BatchResult, ChangeObserver
from repro.simulation.stats import BatchStatistics
from repro.simulation.trace import NetworkTrace
from repro.telemetry.recorder import resolve as _resolve_telemetry
from repro.telemetry.snapshot import TelemetrySnapshot

__all__ = ["QuarantinedBatch", "SimulationResult", "run_simulation"]


@dataclass
class QuarantinedBatch:
    """A batch that died mid-flight, preserved for replay.

    Carries everything needed to reproduce the failure deterministically:
    the batch index (which, with the config seed, fixes every random
    stream), the fault trace recorded up to the abort, and the failure
    snapshot. Re-running ``SimulationEngine(config, protocol).run_batch(
    batch_index)`` reproduces the abort exactly.
    """

    batch_index: int
    seed: Optional[int]
    error_type: str
    message: str
    sim_time: float
    trace: Optional[NetworkTrace] = None
    snapshot: dict = field(default_factory=dict)

    @classmethod
    def from_error(cls, exc: BatchExecutionError) -> "QuarantinedBatch":
        cause = exc.__cause__
        return cls(
            batch_index=exc.batch_index,
            seed=exc.seed,
            error_type=type(cause).__name__ if cause is not None else "unknown",
            message=str(cause) if cause is not None else exc.message,
            sim_time=exc.sim_time if exc.sim_time is not None else 0.0,
            trace=exc.trace,
            snapshot=exc.snapshot,
        )

    def describe(self) -> str:
        events = "no trace" if self.trace is None else f"{len(self.trace)} events"
        chaos = (
            ""
            if self.trace is None
            else f", {len(self.trace.chaos_events())} injected"
        )
        return (
            f"batch {self.batch_index} (seed={self.seed}) aborted at "
            f"t={self.sim_time:.4g}: {self.error_type}: {self.message} "
            f"[{events}{chaos}]"
        )


@dataclass
class SimulationResult:
    """Aggregated outcome of a multi-batch simulation run."""

    config: SimulationConfig
    protocol_name: str
    batches: List[BatchResult]
    #: Batches that aborted and were kept aside (keep-going mode only).
    quarantined: List[QuarantinedBatch] = field(default_factory=list)
    #: Frozen telemetry capture (present when the run had an enabled
    #: recorder): metrics, span tree, and the quorum-decision audit log.
    telemetry: Optional[TelemetrySnapshot] = None

    # ------------------------------------------------------------------
    def _metric(self, name: str, extractor) -> BatchStatistics:
        return BatchStatistics(name, tuple(extractor(b) for b in self.batches))

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def availability(self) -> BatchStatistics:
        """ACC across batches."""
        return self._metric("availability(ACC)", lambda b: b.availability)

    @property
    def read_availability(self) -> BatchStatistics:
        return self._metric("read availability", lambda b: b.read_availability)

    @property
    def write_availability(self) -> BatchStatistics:
        return self._metric("write availability", lambda b: b.write_availability)

    @property
    def surv_read(self) -> BatchStatistics:
        return self._metric("SURV(read)", lambda b: b.surv_read)

    @property
    def surv_write(self) -> BatchStatistics:
        return self._metric("SURV(write)", lambda b: b.surv_write)

    def surv_statistics(self, alpha: float) -> BatchStatistics:
        """Access-mix SURV: ``alpha * SURV_read + (1-alpha) * SURV_write``.

        Combined per batch (not on the means), so the batch-means CI is
        valid for the mixed metric too. The verification subsystem uses
        this as the SURV counterpart of ACC when cross-checking engines.
        """
        return self._metric(
            f"SURV(alpha={alpha:g})",
            lambda b: alpha * b.surv_read + (1.0 - alpha) * b.surv_write,
        )

    # ------------------------------------------------------------------
    def density_matrix(self, weighting: str = "time") -> np.ndarray:
        """Pooled empirical ``f_i`` matrix across all batches.

        ``weighting`` selects the estimator: ``"time"`` (stationary
        distribution — by PASTA also the access-instant distribution) or
        ``"access"`` (the paper's literal per-access recording).
        """
        if weighting not in ("time", "access"):
            raise SimulationError(
                f"weighting must be 'time' or 'access', got {weighting!r}"
            )
        pooled = None
        for batch in self.batches:
            est = batch.density_time if weighting == "time" else batch.density_access
            if pooled is None:
                pooled = OnlinePool(est.n_sites, est.total_votes)
            pooled.add(est)
        assert pooled is not None
        return pooled.matrix()

    def max_component_density(self) -> np.ndarray:
        """Pooled time-weighted density of the largest component's votes."""
        total = None
        for batch in self.batches:
            total = batch.max_votes_time if total is None else total + batch.max_votes_time
        assert total is not None
        mass = float(total.sum())
        if mass <= 0:
            raise SimulationError("no measured time accumulated")
        return total / mass

    def surv_model(self) -> AvailabilityModel:
        """Figure-1 model optimizing SURV instead of ACC.

        Paper, footnote 3: "Our method could be adapted to find optimal
        quorum assignments using the SURV metric by substituting ... the
        distribution of the number of votes in the largest component".
        SURV_read(q_r) = P(max-component votes >= q_r) is exactly the
        upper cumulative of this density, so the SURV objective *is* an
        :class:`AvailabilityModel` over the max-component density.
        """
        density = self.max_component_density()
        return AvailabilityModel(density, density)

    def availability_model(
        self,
        weighting: str = "time",
        read_weights: Optional[np.ndarray] = None,
        write_weights: Optional[np.ndarray] = None,
    ) -> AvailabilityModel:
        """Figure-1 model built from the run's empirical densities.

        ``read_weights`` / ``write_weights`` default to the workload's own
        submission distributions, so the model matches what was simulated.
        """
        if read_weights is None:
            read_weights = self.config.workload.read_weights
        if write_weights is None:
            write_weights = self.config.workload.write_weights
        return AvailabilityModel.from_density_matrix(
            self.density_matrix(weighting),
            read_weights=read_weights,
            write_weights=write_weights,
        )

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"protocol: {self.protocol_name}",
            f"topology: {self.config.topology.name}",
            f"alpha:    {self.config.workload.alpha:g}",
            f"batches:  {self.n_batches}",
            str(self.availability),
            str(self.read_availability),
            str(self.write_availability),
            str(self.surv_read),
            str(self.surv_write),
        ]
        if self.quarantined:
            lines.append(f"quarantined: {len(self.quarantined)} batch(es)")
            lines.extend(f"  {q.describe()}" for q in self.quarantined)
        return "\n".join(lines)


class OnlinePool:
    """Accumulates raw estimator weights across batches."""

    def __init__(self, n_sites: int, total_votes: int) -> None:
        self.weights = np.zeros((n_sites, total_votes + 1), dtype=np.float64)

    def add(self, estimator) -> None:
        self.weights += estimator._weights  # noqa: SLF001 — deliberate pooling

    def matrix(self) -> np.ndarray:
        mass = self.weights.sum(axis=1, keepdims=True)
        if (mass <= 0).any():
            raise SimulationError("pooled density has an unobserved site")
        return self.weights / mass


def run_simulation(
    config: SimulationConfig,
    protocol: ReplicaControlProtocol,
    target_half_width: Optional[float] = None,
    max_batches: int = 18,
    change_observer: Optional[ChangeObserver] = None,
    fail_fast: bool = True,
    telemetry=None,
    n_workers: int = 1,
) -> SimulationResult:
    """Run the paper's batch procedure.

    Runs ``config.n_batches`` batches, then — when ``target_half_width``
    is given — keeps adding batches (up to ``max_batches``, the paper's
    18) until the 95 % CI half-width on ACC availability is within the
    target, mirroring "the number of batches ... is dictated by the
    desired confidence interval".

    ``fail_fast=True`` (the historical behavior) aborts the whole run on
    the first batch error. With ``fail_fast=False`` a failed batch is
    *quarantined* — its seed, fault trace, and failure snapshot are kept
    on ``SimulationResult.quarantined`` for deterministic replay — and
    the campaign continues with the remaining batches.

    With an enabled ``telemetry`` recorder (explicit, or scoped via
    :func:`repro.telemetry.use`), the returned result carries a
    :class:`~repro.telemetry.snapshot.TelemetrySnapshot` of the whole
    run on ``result.telemetry``.

    ``n_workers > 1`` fans the batches out over a process pool through
    the one batch loop (:class:`~repro.simulation.parallel.BatchLoop`,
    DESIGN.md §8): every result aggregate — ACC, SURV, pooled densities,
    the span tree — is bitwise the serial run's, and the merged audit
    totals reconcile with ACC exactly. The adaptive phase adds batches in
    waves of ``n_workers`` (a serial run: waves of one), so a parallel
    adaptive run may finish with up to ``n_workers - 1`` more batches
    than a serial one, never more than ``max_batches``.
    ``change_observer`` callbacks cannot cross the process boundary and
    require ``n_workers=1``.
    """
    from repro.simulation.parallel import BatchLoop

    if max_batches < config.n_batches:
        raise SimulationError(
            f"max_batches ({max_batches}) below configured n_batches ({config.n_batches})"
        )
    if target_half_width is not None and not target_half_width > 0:
        raise SimulationError(
            f"target_half_width must be positive, got {target_half_width}"
        )
    loop = BatchLoop(config, protocol, _resolve_telemetry(telemetry), n_workers,
                     fail_fast, change_observer=change_observer)
    with loop:
        loop.run(range(config.n_batches))
        if not loop.batches:
            raise SimulationError(
                f"every batch failed ({len(loop.quarantined)} quarantined); "
                f"first: {loop.quarantined[0].describe()}"
            )
        result = SimulationResult(config, protocol.name, loop.batches,
                                  loop.quarantined)
        next_index = config.n_batches
        while (target_half_width is not None and next_index < max_batches
               and not result.availability.meets_precision(target_half_width)):
            wave = range(next_index, min(next_index + n_workers, max_batches))
            next_index = wave.stop
            loop.run(wave)
    result.telemetry = loop.snapshot(
        protocol=protocol.name,
        topology=config.topology.name,
        alpha=config.workload.alpha,
        n_batches=len(loop.batches),
        seed=config.seed,
    )
    return result
