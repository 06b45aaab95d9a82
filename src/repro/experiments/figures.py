"""Regenerate the data behind the paper's Figures 2–7.

Each figure plots availability against the read quorum ``q_r`` for one
topology, with five curves ``alpha in {0, .25, .5, .75, 1}``. The paper
produces each point by simulating the quorum consensus protocol at that
``(alpha, q_r)``; we exploit the paper's own observation (section 4.2)
that a single run's on-line density estimate determines the whole
availability surface: one simulation per topology yields the empirical
``f_i`` matrix, and the Figure-1 algebra evaluates every curve from it.
(The component process does not depend on ``alpha`` or ``q_r``, so this
is not an approximation beyond Monte-Carlo noise; the test suite
spot-checks curve points against direct protocol simulation.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.experiments.paper import PAPER_ALPHAS, PAPER_SCALE, ExperimentScale
from repro.protocols.majority import MajorityConsensusProtocol
from repro.quorum.availability import AvailabilityModel
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import SimulationResult, run_simulation
from repro.topology.model import Topology

__all__ = ["FigureSeries", "FigureData", "figure_data"]


@dataclass(frozen=True)
class FigureSeries:
    """One curve of a figure: availability over the quorum grid."""

    alpha: float
    availability: np.ndarray

    @property
    def max_value(self) -> float:
        return float(self.availability.max())

    @property
    def argmax_quorum(self) -> int:
        """The optimal ``q_r`` on this curve (ties toward smaller quorums)."""
        best = self.max_value
        return int(np.nonzero(self.availability >= best - 1e-12)[0][0]) + 1

    @property
    def maximized_at_endpoint(self) -> bool:
        """Does the optimum sit at ``q_r = 1`` or ``q_r = floor(T/2)``?"""
        q = self.argmax_quorum
        return q == 1 or q == self.availability.shape[0]


@dataclass(frozen=True)
class FigureData:
    """All curves of one paper figure plus the run they came from."""

    topology_name: str
    quorums: np.ndarray
    series: Tuple[FigureSeries, ...]
    model: AvailabilityModel
    result: SimulationResult

    def curve(self, alpha: float) -> FigureSeries:
        for s in self.series:
            if abs(s.alpha - alpha) < 1e-12:
                return s
        raise KeyError(f"no curve for alpha={alpha}")

    @property
    def convergence_spread(self) -> float:
        """Spread of the curves at ``q_r = floor(T/2)``.

        The paper's "most striking observation" is that all curves of a
        topology converge at the right edge; this is the max-min gap
        there.
        """
        edge = np.asarray([s.availability[-1] for s in self.series])
        return float(edge.max() - edge.min())


def figure_data(
    config: Optional[SimulationConfig] = None,
    topology: Optional[Topology] = None,
    chords: Optional[int] = None,
    alphas: Sequence[float] = PAPER_ALPHAS,
    scale: ExperimentScale = PAPER_SCALE,
    weighting: str = "time",
    seed: Optional[int] = 0,
) -> FigureData:
    """Produce one figure's data.

    Provide either a full ``config``, a ``topology``, or a paper
    ``chords`` index. The simulation itself runs under the majority
    protocol (any static protocol gives the same component process; the
    majority instance exists for every ``T``), and the curves come from
    the run's empirical density model.

    The run always uses ``expected`` accounting, whatever ``config``
    asks for: a figure reads the component-vote densities, never
    individual accesses, so nothing is drawn for it. Sampled ACC batch
    means are :func:`~repro.simulation.runner.run_simulation`'s job,
    not a figure's.
    """
    if config is not None:
        config = config.with_accounting("expected")
    elif topology is not None:
        config = scale.config(0, alpha=0.5, accounting="expected", seed=seed,
                              topology=topology)
    elif chords is not None:
        config = scale.config(chords, alpha=0.5, accounting="expected", seed=seed)
    else:
        raise ValueError("need one of config, topology, or chords")

    protocol = MajorityConsensusProtocol(config.topology.total_votes)
    result = run_simulation(config, protocol)
    model = result.availability_model(weighting=weighting)
    quorums = model.feasible_read_quorums()
    series = tuple(
        FigureSeries(alpha=float(a), availability=model.curve(float(a)))
        for a in alphas
    )
    return FigureData(
        topology_name=config.topology.name,
        quorums=quorums,
        series=series,
        model=model,
        result=result,
    )
