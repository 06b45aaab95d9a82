"""Alternating exponential up/down processes for sites and links.

Paper, section 5.2: "Site and link failures and recoveries are modeled as
Poisson processes. The mean time-to-next-failure of each component,
``mu_f``, is the same for both sites and links. Likewise, the mean time to
recovery, ``mu_r``." With reliability 0.96, ``mu_f / (mu_f + mu_r) = .96``.

Each *component* (a site or a link — the paper's term for any fallible
network element) alternates between exponential up periods of mean
``mu_f`` and exponential down periods of mean ``mu_r``; the stationary
probability of being up is then ``mu_f / (mu_f + mu_r)``, the component's
reliability. ``FailureProcesses`` owns the per-component clocks.

The clocks depend on nothing the protocol or the accesses do, so
:meth:`FailureProcesses.history` generates a batch's failure history
ahead of the accounting, in one loop over plain heap tuples; the per-event
API (``EventQueue.pop`` + ``schedule_repair`` / ``schedule_failure``) is
its oracle. Both take delays from one pool of block-drawn standard
exponentials: ``exponential(scale)`` *is* ``scale * standard_exponential()``
and a block draw consumes the bit stream as scalar draws do, so every
delay is bitwise the ``rng.exponential(scale)`` call it replaces.
"""

from __future__ import annotations

from heapq import heappop, heapreplace
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.errors import SimulationError
from repro.rng import RandomState, as_generator
from repro.simulation.events import (
    EVENT_KINDS,
    SOURCE_CHAOS,
    SOURCE_STOCHASTIC,
    EventKind,
    EventQueue,
)
from repro.topology.model import Topology

__all__ = ["reliability_to_repair_time", "failure_parameters", "FailureProcesses"]

ParamLike = Union[float, Sequence[float], np.ndarray]

#: Draws per refill of the delay pool; events per block of a history.
#: Constants, not options: they amortise a NumPy call and keep a
#: ``paper``-scale batch (~770 k events) from being all Python objects.
_POOL_BLOCK = 4096
_HISTORY_BLOCK = 4096


def reliability_to_repair_time(reliability: float, mean_time_to_failure: float) -> float:
    """Mean repair time giving a target stationary reliability.

    From ``reliability = mu_f / (mu_f + mu_r)``:
    ``mu_r = mu_f (1 - reliability) / reliability``. The paper's 0.96 at
    ``mu_f = 128`` gives ``mu_r = 128/24 ≈ 5.33``.
    """
    if not 0.0 < reliability < 1.0:
        raise SimulationError(
            f"reliability must be strictly inside (0, 1) for an alternating "
            f"process, got {reliability}"
        )
    if mean_time_to_failure <= 0.0:
        raise SimulationError(
            f"mean time to failure must be positive, got {mean_time_to_failure}"
        )
    return mean_time_to_failure * (1.0 - reliability) / reliability


def _param_vector(value: ParamLike, count: int, label: str, error: type[SimulationError]) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(count, float(arr))
    if arr.shape != (count,):
        raise error(
            f"{label} must be a scalar or a vector of length n_sites + n_links "
            f"= {count}, got shape {arr.shape}"
        )
    # NaN compares false to everything, so name it; ``inf`` is "never".
    if (arr <= 0.0).any() or np.isnan(arr).any():
        raise error(f"{label} must be positive, not NaN")
    return arr


def failure_parameters(
    mean_time_to_failure: ParamLike,
    mean_time_to_repair: ParamLike,
    count: int,
    error: type[SimulationError] = SimulationError,
) -> tuple[np.ndarray, np.ndarray]:
    """The one check on mean failure and repair times, as two length-``count`` vectors.

    Each is a positive scalar or per-component vector, never NaN; ``inf``
    means "never", but not for both at once. Configs call this at
    construction with their own ``error`` class, so a bad value fails
    there and not inside a batch.
    """
    mttf = _param_vector(mean_time_to_failure, count, "mean_time_to_failure", error)
    mttr = _param_vector(mean_time_to_repair, count, "mean_time_to_repair", error)
    if (np.isinf(mttf) & np.isinf(mttr)).any():
        raise error(
            "a component that never fails and is never repaired has no "
            "stationary state: mean_time_to_failure and mean_time_to_repair "
            "are both inf"
        )
    return mttf, mttr


class FailureProcesses:
    """Per-component failure/repair clocks over a topology.

    Sites occupy component indices ``0..n_sites-1``; links occupy
    ``n_sites..n_sites+n_links-1``. Mean times may be scalars (the paper's
    homogeneous setting) or per-component vectors (heterogeneous
    hardware, or the bus model's perfectly reliable spokes — encode those
    by simply excluding the component via ``fallible`` mask).
    """

    def __init__(
        self,
        topology: Topology,
        mean_time_to_failure: ParamLike,
        mean_time_to_repair: ParamLike,
        seed: RandomState = None,
        fallible_sites: Optional[np.ndarray] = None,
        fallible_links: Optional[np.ndarray] = None,
    ) -> None:
        self.topology = topology
        n = topology.n_sites + topology.n_links
        self.n_components = n
        self.mttf, self.mttr = failure_parameters(
            mean_time_to_failure, mean_time_to_repair, n
        )
        self.rng = as_generator(seed)
        # Imported here: repro.simulation.config imports this module.
        from repro.simulation.config import fallible_masks

        self.fallible = np.concatenate(
            fallible_masks(topology, fallible_sites, fallible_links))
        #: Unused standard-exponential draws, next one last.
        self._pool: List[float] = []

    # ------------------------------------------------------------------
    def deactivate(
        self,
        site_ids: Sequence[int] = (),
        link_ids: Sequence[int] = (),
    ) -> int:
        """Remove components from the fallible set.

        The chaos layer calls this for every component a fault schedule
        *owns*: a scripted partition that cuts a link at t=10 and heals it
        at t=40 must not race a stochastic repair of the same link at
        t=25. Must be called before :meth:`prime` /
        :meth:`prime_stationary`; returns the number of components newly
        deactivated.
        """
        removed = 0
        for site in site_ids:
            site = int(site)
            if not 0 <= site < self.topology.n_sites:
                raise SimulationError(f"cannot deactivate unknown site {site}")
            if self.fallible[site]:
                self.fallible[site] = False
                removed += 1
        for link in link_ids:
            link = int(link)
            if not 0 <= link < self.topology.n_links:
                raise SimulationError(f"cannot deactivate unknown link id {link}")
            component = self.topology.n_sites + link
            if self.fallible[component]:
                self.fallible[component] = False
                removed += 1
        return removed

    # ------------------------------------------------------------------
    def stationary_reliability(self) -> np.ndarray:
        """Per-component stationary up probability (1 for infallible ones)."""
        # mttf = inf is "never fails"; inf / inf would make it NaN, and a
        # NaN reliability draws the component *down* at a stationary start.
        with np.errstate(invalid="ignore"):
            rel = self.mttf / (self.mttf + self.mttr)
        rel[np.isinf(self.mttf)] = 1.0
        rel[~self.fallible] = 1.0
        return rel

    # ------------------------------------------------------------------
    def prime(self, queue: EventQueue, start_time: float = 0.0) -> None:
        """Schedule the first failure of every fallible component.

        The initial state is everything-up (the paper resets to the
        initial state before each batch); by memorylessness, starting
        every up-clock fresh at ``start_time`` is the correct conditional
        distribution given "all up at time 0".
        """
        components = self._unprimed()
        self._schedule_first(
            queue, start_time, components, np.ones(components.size, dtype=bool))

    def prime_stationary(self, queue: EventQueue, start_time: float = 0.0):
        """Sample the stationary state and schedule matching transitions.

        Draws each fallible component up with its stationary probability
        ``mttf / (mttf + mttr)`` and schedules its next transition
        (failure if up, repair if down). Because both phase durations are
        exponential, this is *exactly* the time-stationary law of the
        alternating process — a batch started this way needs no warm-up
        at all, removing the transient bias the paper burns 100 000
        accesses to wash out.

        Returns ``(site_up, link_up)`` boolean masks for the caller to
        install into its :class:`~repro.connectivity.dynamic.NetworkState`.
        """
        components = self._unprimed()
        up = self.rng.random(components.size) < self.stationary_reliability()[components]
        self._schedule_first(queue, start_time, components, up)
        state = np.ones(self.n_components, dtype=bool)
        state[components] = up
        return state[: self.topology.n_sites], state[self.topology.n_sites:]

    def _unprimed(self) -> np.ndarray:
        """The fallible components, if priming would not reorder the stream."""
        if self._pool:
            raise SimulationError(
                "priming draws from the generator directly and must precede "
                "every follow-up delay: the pool already holds later draws"
            )
        return np.nonzero(self.fallible)[0]

    def _schedule_first(self, queue, start_time, components, up) -> None:
        """One block draw: a failure for every up component, else a repair."""
        n_sites = self.topology.n_sites
        scales = np.where(up, self.mttf[components], self.mttr[components])
        times = start_time + scales * self.rng.standard_exponential(components.size)
        is_link = components >= n_sites
        queue.schedule_many(
            times.tolist(), (2 * is_link + ~up).tolist(),
            (components - n_sites * is_link).tolist())

    # ------------------------------------------------------------------
    def _refill(self) -> float:
        """Draw a block into the empty pool; return its first value."""
        self._pool.extend(self.rng.standard_exponential(_POOL_BLOCK)[::-1].tolist())
        return self._pool.pop()

    def schedule_repair(self, queue: EventQueue, time: float, kind: EventKind, target: int) -> None:
        """After a failure at ``time``, schedule the matching repair."""
        self._follow_up(queue, time, 0 if kind is EventKind.SITE_FAIL else 2, target)

    def schedule_failure(self, queue: EventQueue, time: float, kind: EventKind, target: int) -> None:
        """After a repair at ``time``, schedule the next failure."""
        self._follow_up(queue, time, 1 if kind is EventKind.SITE_REPAIR else 3, target)

    def _follow_up(self, queue: EventQueue, time: float, code: int, target: int) -> None:
        mean = (self.mttf if code & 1 else self.mttr)[target + (code > 1) * self.topology.n_sites]
        draw = self._pool.pop() if self._pool else self._refill()
        queue.schedule(time + float(mean) * draw, EVENT_KINDS[code ^ 1], target)

    def history(self, queue: EventQueue, horizon: float) -> Iterator[List[tuple]]:
        """Generate the whole failure history of a primed ``queue``.

        Yields blocks of rows ``(time, kind code, target, is chaos)`` in
        ``(time, sequence)`` order: every event with ``time < horizon``,
        bitwise what popping ``queue`` and calling :meth:`schedule_repair`
        / :meth:`schedule_failure` per event produces. A chaos event gets
        no follow-up: its schedule owns the component's whole future. A
        block holds ``_HISTORY_BLOCK`` rows, more only so as not to end
        inside an instant. The generator owns ``queue``.
        """
        heap, counter = queue._heap, queue._counter
        pool, refill = self._pool, self._refill
        n_sites = self.topology.n_sites
        mttf, mttr = self.mttf.tolist(), self.mttr.tolist()
        # Mean delay to the follow-up of a kind code's event, by target.
        scales = (mttr[:n_sites], mttf[:n_sites], mttr[n_sites:], mttf[n_sites:])
        block: List[tuple] = []
        room, time = _HISTORY_BLOCK, None
        while heap:
            entry = heap[0]
            if not entry[0] < horizon:
                break
            if room <= 0 and entry[0] != time:
                yield block
                block, room = [], _HISTORY_BLOCK
            room -= 1
            time, _, code, target, source, _ = entry
            if code > 3:
                raise SimulationError(f"cannot apply event kind {EVENT_KINDS[code]}")
            chaos = source == SOURCE_CHAOS
            if chaos:
                heappop(heap)
            else:
                heapreplace(heap, (
                    time + scales[code][target] * (pool.pop() if pool else refill()),
                    next(counter), code ^ 1, target, SOURCE_STOCHASTIC, None,
                ))
            block.append((time, code, target, chaos))
        if block:
            yield block
