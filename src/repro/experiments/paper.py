"""Canonical parameters of the paper's evaluation (section 5).

The paper's full scale (101 sites, 100 000 warm-up accesses, 1 000 000
accesses per batch, 5–18 batches) took half an hour to two hours per
batch on a 1990 DEC Station 5000. :data:`PAPER_SCALE` encodes those
numbers faithfully; :data:`TEST_SCALE` shrinks the network and the
access volume for tests while keeping every dimensionless parameter —
reliability, rho, alpha grid — identical, so the qualitative results are
unchanged and only the confidence intervals widen. EXPERIMENTS.md
records which scale produced each reported number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.simulation.config import SimulationConfig
from repro.topology.generators import paper_topology
from repro.topology.model import Topology

__all__ = [
    "PAPER_N_SITES",
    "PAPER_CHORD_COUNTS",
    "PAPER_ALPHAS",
    "PAPER_RELIABILITY",
    "PAPER_RHO",
    "ExperimentScale",
    "PAPER_SCALE",
    "TEST_SCALE",
]

#: Sites in the paper's evaluated networks.
PAPER_N_SITES = 101

#: Chord counts of "Topology i" (section 5.1); 4949 = fully connected.
PAPER_CHORD_COUNTS: Tuple[int, ...] = (0, 1, 2, 4, 16, 256, 4949)

#: Read fractions of the figures' five curves.
PAPER_ALPHAS: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Stationary reliability of every site and link.
PAPER_RELIABILITY = 0.96

#: Ratio of mean time-to-next-access to mean time-to-next-failure.
PAPER_RHO = 1.0 / 128.0


@dataclass(frozen=True)
class ExperimentScale:
    """Workload volume knobs, independent of the physical parameters."""

    name: str
    n_sites: int
    warmup_accesses: float
    accesses_per_batch: float
    n_batches: int
    #: "all_up" (paper-faithful reset + warm-up) or "stationary" (start
    #: from the exact stationary state; no warm-up bias at any scale).
    initial_state: str = "all_up"

    def config(
        self,
        chords: int,
        alpha: float,
        accounting: str = "sampled",
        seed: Optional[int] = 0,
        topology: Optional[Topology] = None,
    ) -> SimulationConfig:
        """A paper-parameterized config at this scale.

        ``chords`` selects the paper topology (ignored when an explicit
        ``topology`` is passed). The chord count is clamped to what the
        ring at this scale can host, so e.g. ``chords=4949`` means "fully
        connected" at any ``n_sites``.
        """
        if topology is None:
            limit = self.n_sites * (self.n_sites - 3) // 2
            topology = paper_topology(min(chords, limit), n_sites=self.n_sites)
        return SimulationConfig.paper_like(
            topology,
            alpha=alpha,
            reliability=PAPER_RELIABILITY,
            rho=PAPER_RHO,
            warmup_accesses=self.warmup_accesses,
            accesses_per_batch=self.accesses_per_batch,
            n_batches=self.n_batches,
            accounting=accounting,
            initial_state=self.initial_state,
            seed=seed,
        )


#: The paper's exact scale (section 5.2).
PAPER_SCALE = ExperimentScale(
    name="paper",
    n_sites=PAPER_N_SITES,
    warmup_accesses=100_000.0,
    accesses_per_batch=1_000_000.0,
    n_batches=5,
)

#: Test-scale: small networks, short batches — seconds, not minutes.
TEST_SCALE = ExperimentScale(
    name="test",
    n_sites=21,
    warmup_accesses=500.0,
    accesses_per_batch=4_000.0,
    n_batches=3,
)
