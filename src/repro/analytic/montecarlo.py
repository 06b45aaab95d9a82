"""Static Monte-Carlo estimation of component-vote densities.

For general graphs where exact computation is #P-complete and the closed
forms do not apply, ``f_i`` can be estimated by sampling independent
network states from the stationary distribution (every site up w.p. ``p``,
every link up w.p. ``r``) and recording each site's component vote total.

The estimator is batched and streams (DESIGN.md §10): samples are drawn
in blocks of ``batch_size`` states, and a block goes masks → counts
through :func:`~repro.connectivity.components.batched_vote_histogram` in
row sub-blocks of at most ``SLOT_BUDGET`` link slots
(:func:`~repro.connectivity.components.sub_blocks`; one sub-block per
block on every sparse paper topology), each drawn just before it is
labelled in one call over its runs of consecutive up sites (a numpy union
on sparse topologies, a bitmask flood per state on dense ones); this
module owns no labelling or binning code.
Counts are summed as soon as they exist, and each block's generator is
made when the block starts (:class:`~repro.rng.Substreams`), so memory
grows with neither ``n_samples`` nor the block's slot count. Blocks draw
their random masks from independent substreams of the caller's seed, so
the estimate depends only on ``(seed, n_samples, batch_size)`` — in
particular it is *identical* for any ``n_workers``, which hands each
worker process one contiguous run of blocks.

This is the *off-line* counterpart of the on-line estimator in
:mod:`repro.protocols.estimator`: the on-line estimator sees states
weighted by the failure-process dynamics at access instants, which for
Poisson accesses (PASTA) converges to the same stationary distribution —
a property the test suite checks.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.analytic.density import Reliability, normalize_density, reliability_vector
from repro.connectivity.components import (
    VoteHistogram,
    batched_vote_histogram,
    sub_blocks,
)
from repro.errors import SimulationError, TopologyError
from repro.rng import RandomState, Substreams, as_generator
from repro.topology.model import Topology

__all__ = ["montecarlo_density_matrix", "montecarlo_density"]


def _recorder():
    """The current recorder; pool workers run under the NULL recorder,
    so with ``n_workers > 1`` only in-process blocks show phases."""
    from repro.telemetry.recorder import current as _current_recorder

    return _current_recorder()


def _block_counts(
    topology: Topology,
    site_masks: np.ndarray,
    link_masks: np.ndarray,
) -> np.ndarray:
    """One block of states → its count matrix, attributed to ``mc.label``."""
    with _recorder().phase("mc.label"):
        return batched_vote_histogram(topology, site_masks, link_masks)


def _chunk_counts(
    topology: Topology,
    site_rel: np.ndarray,
    link_rel: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``count`` states and bin their vote totals.

    The block's site masks are drawn first, then its link masks one
    :func:`~repro.connectivity.components.sub_blocks` range at a time,
    each labelled as soon as it is drawn. A ``Generator`` fills row by
    row, so this is the stream of one ``(count, n_links)`` draw, and the
    block's uniforms never exist at once.
    """
    recorder = _recorder()
    histogram = VoteHistogram(topology)
    for rows in sub_blocks(topology, count):
        with recorder.phase("mc.sample"):
            if not rows.start:
                site_masks = rng.random((count, topology.n_sites)) < site_rel
            link_masks = rng.random(
                (rows.stop - rows.start, topology.n_links)) < link_rel
        with recorder.phase("mc.label"):
            histogram.add(site_masks[rows], link_masks)
    return histogram.counts()


def _run_counts(
    shared: Tuple[Topology, np.ndarray, np.ndarray, int, int, Substreams],
    blocks: range,
) -> np.ndarray:
    """The :func:`repro.pool.fan_out` task: one summed count matrix for a
    contiguous run of blocks, each added as soon as it is done.

    Block ``i`` holds ``batch_size`` states (the last one the rest of
    ``n_samples``) and draws from substream ``i``, made when the block
    starts, so no run holds more than one block's generator."""
    topology, site_rel, link_rel, n_samples, batch_size, streams = shared
    counts = np.zeros((topology.n_sites, topology.total_votes + 1))
    for i in blocks:
        count = min(batch_size, n_samples - i * batch_size)
        counts += _chunk_counts(topology, site_rel, link_rel, count, streams[i])
    return counts


def montecarlo_density_matrix(
    topology: Topology,
    p: Reliability,
    r: Reliability,
    n_samples: int = 10_000,
    seed: RandomState = None,
    batch_size: int = 256,
    n_workers: int = 1,
) -> np.ndarray:
    """Estimate the density matrix ``(n_sites, T+1)`` from random states.

    States are sampled in blocks of ``batch_size``; each block's random
    masks come from an independent substream of ``seed``, made when the
    block starts, and are labelled in slot-bounded sub-blocks, and each
    block's counts join one running sum. With ``n_workers > 1`` the
    blocks are cut into at most ``n_workers`` contiguous runs, one
    process-pool task each, and the runs' sums are added; counts are
    integers below 2**53 and the substream depends only on the block
    index, so the returned matrix is bitwise identical for every
    ``n_workers`` value.
    """
    if n_samples <= 0:
        raise SimulationError(f"n_samples must be positive, got {n_samples}")
    if batch_size <= 0:
        raise SimulationError(f"batch_size must be positive, got {batch_size}")
    if n_workers <= 0:
        raise SimulationError(f"n_workers must be positive, got {n_workers}")

    site_rel = reliability_vector(p, topology.n_sites, "site reliability")
    link_rel = reliability_vector(r, topology.n_links, "link reliability")

    n_blocks = -(-n_samples // batch_size)
    streams = Substreams(seed if seed is not None else as_generator(None), n_blocks)

    shared = (topology, site_rel, link_rel, n_samples, batch_size, streams)
    workers = min(n_workers, n_blocks)
    if workers == 1:
        counts = _run_counts(shared, range(n_blocks))
    else:
        from repro.pool import fan_out

        cuts = [n_blocks * i // workers for i in range(workers + 1)]
        runs = [range(a, b) for a, b in zip(cuts, cuts[1:])]
        # Every partial sum is an integer below 2**53, so the grouping
        # leaves the matrix bitwise that of the serial path.
        counts = sum(fan_out(_run_counts, shared, runs, workers))
    return counts / n_samples


def montecarlo_density(
    topology: Topology,
    site: int,
    p: Reliability,
    r: Reliability,
    n_samples: int = 10_000,
    seed: RandomState = None,
    n_workers: int = 1,
) -> np.ndarray:
    """Estimate ``f_site(v)`` for one site; returns a normalized density."""
    if not 0 <= site < topology.n_sites:
        raise TopologyError(f"unknown site {site}")
    matrix = montecarlo_density_matrix(
        topology, p, r, n_samples=n_samples, seed=seed, n_workers=n_workers
    )
    return normalize_density(matrix[site])
