"""Simulation configuration with the paper's section 5.2 defaults.

The paper's parameterization:

- mean inter-access time per site ``mu_t = 1``;
- ``rho = mu_t / mu_f = 1/128``, so mean time to failure ``mu_f = 128``;
- component reliability 0.96, so ``mu_r = mu_f * (1-.96)/.96 ≈ 5.33``;
- 100 000 warm-up accesses, 1 000 000 accesses per batch, 5–18 batches,
  targeting a 95 % confidence half-width of at most 0.5 %.

Those full-scale values live in :data:`repro.experiments.paper.PAPER_SCALE`;
the defaults here are laptop-scale (identical dynamics, fewer accesses)
so that tests and examples finish in seconds. Estimates remain unbiased —
only the confidence interval widens, and it is always reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.simulation.processes import failure_parameters, reliability_to_repair_time
from repro.simulation.workload import AccessWorkload
from repro.topology.model import Topology

if TYPE_CHECKING:
    from repro.faults.schedule import FaultSchedule

__all__ = ["SimulationConfig", "access_volumes", "fallible_masks"]

#: Supported access-accounting modes (DESIGN.md: "Two availability estimators").
ACCOUNTING_MODES = ("sampled", "expected")

#: Supported batch initial states (both configs').
INITIAL_STATES = ("all_up", "stationary")


def access_volumes(
    warmup_accesses: float,
    accesses_per_batch: float,
    error: type[SimulationError] = SimulationError,
) -> None:
    """The one check on a config's expected access volumes.

    The warm-up is finite and non-negative, the batch finite and
    positive. NaN and ``inf`` fail here, at construction, rather than as
    a NaN estimate or a batch that never ends.
    """
    if not (np.isfinite(warmup_accesses) and warmup_accesses >= 0):
        raise error(
            f"warmup_accesses must be finite and non-negative, got {warmup_accesses}"
        )
    if not (np.isfinite(accesses_per_batch) and accesses_per_batch > 0):
        raise error(
            f"accesses_per_batch must be finite and positive, got {accesses_per_batch}"
        )


def fallible_masks(
    topology: Topology,
    fallible_sites: Optional[np.ndarray],
    fallible_links: Optional[np.ndarray],
    error: type[SimulationError] = SimulationError,
) -> Tuple[np.ndarray, np.ndarray]:
    """The one check on the fallible masks: ``(sites, links)`` as bool vectors.

    ``None`` marks every site (link) fallible. A mask holds one entry per
    site (per link); any other shape fails here, at construction, rather
    than as a failed batch.
    """
    masks = []
    for name, mask, count in (("fallible_sites", fallible_sites, topology.n_sites),
                              ("fallible_links", fallible_links, topology.n_links)):
        mask = np.ones(count, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        if mask.shape != (count,):
            raise error(f"{name} must have shape ({count},), got {mask.shape}")
        masks.append(mask)
    return masks[0], masks[1]


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one batch of simulation needs besides the protocol.

    Attributes
    ----------
    topology:
        The network (sites, links, votes).
    workload:
        Access process: read fraction and site distributions.
    mean_time_to_failure, mean_time_to_repair:
        Exponential means — scalars for the paper's homogeneous setting,
        or per-component vectors of length ``n_sites + n_links`` (sites
        first) for heterogeneous hardware. Use :meth:`paper_like` to
        derive the scalars from ``rho`` and a reliability target.
    warmup_accesses:
        Expected number of accesses to discard before measuring.
    accesses_per_batch:
        Expected number of measured accesses per batch.
    n_batches:
        Batches for the batch-means confidence interval.
    accounting:
        ``"sampled"`` draws the access counts of every epoch exactly;
        ``"expected"`` integrates conditional grant probabilities
        (variance-reduced, unbiased for ACC).
    initial_state:
        ``"all_up"`` starts each batch with everything operational — the
        paper's reset, which is why it needs a long warm-up.
        ``"stationary"`` samples the exact stationary up/down state of
        every component (valid because phase durations are exponential),
        so no warm-up is required and short batches are unbiased.
    fallible_sites, fallible_links:
        Boolean masks, one entry per site / per link: ``False`` marks a
        component that never fails (the bus encoding's perfect spokes).
        ``None`` means every component of that kind fails.
    seed:
        Reproducibility seed; batch ``k`` derives an independent stream.
    fault_schedule:
        Optional :class:`~repro.faults.schedule.FaultSchedule`: scripted
        topology events primed into every batch alongside the stochastic
        processes. Components its events name are removed from the
        stochastic fallible set automatically.
    """

    topology: Topology
    workload: AccessWorkload
    mean_time_to_failure: Union[float, np.ndarray] = 128.0
    mean_time_to_repair: Union[float, np.ndarray] = reliability_to_repair_time(0.96, 128.0)
    warmup_accesses: float = 1_000.0
    accesses_per_batch: float = 10_000.0
    n_batches: int = 5
    accounting: str = "sampled"
    initial_state: str = "all_up"
    fallible_sites: Optional[np.ndarray] = None
    fallible_links: Optional[np.ndarray] = None
    seed: Optional[int] = 0
    fault_schedule: Optional["FaultSchedule"] = None

    def __post_init__(self) -> None:
        if self.workload.n_sites != self.topology.n_sites:
            raise SimulationError(
                f"workload covers {self.workload.n_sites} sites but the topology "
                f"has {self.topology.n_sites}"
            )
        failure_parameters(
            self.mean_time_to_failure, self.mean_time_to_repair,
            self.topology.n_sites + self.topology.n_links,
        )
        access_volumes(self.warmup_accesses, self.accesses_per_batch)
        fallible_masks(self.topology, self.fallible_sites, self.fallible_links)
        if self.n_batches <= 0:
            raise SimulationError(f"n_batches must be positive, got {self.n_batches}")
        if self.accounting not in ACCOUNTING_MODES:
            raise SimulationError(
                f"accounting must be one of {ACCOUNTING_MODES}, got {self.accounting!r}"
            )
        if self.initial_state not in INITIAL_STATES:
            raise SimulationError(
                f"initial_state must be one of {INITIAL_STATES}, got {self.initial_state!r}"
            )
        if self.fault_schedule is not None:
            # Imported here: repro.faults imports this module.
            from repro.faults.schedule import FaultSchedule

            if not isinstance(self.fault_schedule, FaultSchedule):
                raise SimulationError(
                    "fault_schedule must be a FaultSchedule, got "
                    f"{type(self.fault_schedule).__name__}")

    # ------------------------------------------------------------------
    @classmethod
    def paper_like(
        cls,
        topology: Topology,
        alpha: float,
        reliability: float = 0.96,
        rho: float = 1.0 / 128.0,
        rate_per_site: float = 1.0,
        **overrides,
    ) -> "SimulationConfig":
        """Build a config from the paper's dimensionless parameters.

        ``rho`` is the ratio of mean time-to-next-access to mean
        time-to-next-failure; with ``mu_t = 1/rate_per_site`` that fixes
        ``mu_f = mu_t / rho`` and the reliability target fixes ``mu_r``.
        """
        if rho <= 0:
            raise SimulationError(f"rho must be positive, got {rho}")
        mu_t = 1.0 / rate_per_site
        mu_f = mu_t / rho
        mu_r = reliability_to_repair_time(reliability, mu_f)
        workload = AccessWorkload.uniform(topology.n_sites, alpha, rate_per_site)
        return cls(
            topology=topology,
            workload=workload,
            mean_time_to_failure=mu_f,
            mean_time_to_repair=mu_r,
            **overrides,
        )

    # ------------------------------------------------------------------
    @property
    def component_reliability(self) -> Union[float, np.ndarray]:
        """Stationary up-probability of each fallible component.

        A scalar in the homogeneous case, a vector when either mean is
        per-component.
        """
        mttf = np.asarray(self.mean_time_to_failure, dtype=np.float64)
        mttr = np.asarray(self.mean_time_to_repair, dtype=np.float64)
        rel = mttf / (mttf + mttr)
        return float(rel) if rel.ndim == 0 else rel

    @property
    def warmup_time(self) -> float:
        """Simulated time carrying ``warmup_accesses`` expected accesses."""
        return self.warmup_accesses / self.workload.aggregate_rate

    @property
    def batch_time(self) -> float:
        """Simulated time carrying ``accesses_per_batch`` expected accesses."""
        return self.accesses_per_batch / self.workload.aggregate_rate

    def with_alpha(self, alpha: float) -> "SimulationConfig":
        """Same config, different read fraction."""
        return replace(self, workload=self.workload.with_alpha(alpha))

    def with_accounting(self, accounting: str) -> "SimulationConfig":
        return replace(self, accounting=accounting)

    def with_seed(self, seed: Optional[int]) -> "SimulationConfig":
        return replace(self, seed=seed)

    def with_fault_schedule(self, fault_schedule) -> "SimulationConfig":
        """Same config with a (possibly different) chaos fault schedule."""
        return replace(self, fault_schedule=fault_schedule)
