"""Static Monte-Carlo estimation of component-vote densities.

For general graphs where exact computation is #P-complete and the closed
forms do not apply, ``f_i`` can be estimated by sampling independent
network states from the stationary distribution (every site up w.p. ``p``,
every link up w.p. ``r``) and recording each site's component vote total.

The estimator is fully batched (DESIGN.md §10): samples are drawn in
blocks of ``batch_size`` states, and each block goes masks → counts
through :func:`~repro.connectivity.components.batched_vote_histogram` —
one block-diagonal :func:`scipy.sparse.csgraph.connected_components`
call labels every partition of every state in the block and the same
function bins the vote totals; this module owns no labelling or binning
code. Blocks draw their random masks from independent substreams spawned
off the caller's seed, so the estimate depends only on ``(seed,
n_samples, batch_size)`` — in particular it is *identical* for any
``n_workers``, which merely shards the blocks across a process pool.

This is the *off-line* counterpart of the on-line estimator in
:mod:`repro.protocols.estimator`: the on-line estimator sees states
weighted by the failure-process dynamics at access instants, which for
Poisson accesses (PASTA) converges to the same stationary distribution —
a property the test suite checks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analytic.density import normalize_density
from repro.connectivity.components import batched_vote_histogram
from repro.errors import DensityError, SimulationError, TopologyError
from repro.rng import RandomState, as_generator, spawn
from repro.topology.model import Topology

__all__ = ["montecarlo_density_matrix", "montecarlo_density"]

Reliability = Union[float, Sequence[float], np.ndarray]


def _reliability_vector(value: Reliability, count: int, label: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(count, float(arr))
    if arr.shape != (count,):
        raise DensityError(f"{label} must be scalar or length {count}, got shape {arr.shape}")
    if ((arr < 0.0) | (arr > 1.0)).any():
        raise DensityError(f"{label} values must be in [0, 1]")
    return arr


def _recorder():
    """The current recorder; pool workers run under the NULL recorder,
    so with ``n_workers > 1`` only in-process blocks show phases."""
    from repro.telemetry.recorder import current as _current_recorder

    return _current_recorder()


def _block_counts(
    topology: Topology,
    site_masks: np.ndarray,
    link_masks: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One block of states → its count matrix, attributed to ``mc.label``."""
    with _recorder().phase("mc.label"):
        return batched_vote_histogram(topology, site_masks, link_masks, weights)


def _chunk_counts(
    topology: Topology,
    site_rel: np.ndarray,
    link_rel: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``count`` states and bin their vote totals (one labelling call)."""
    with _recorder().phase("mc.sample"):
        site_masks = rng.random((count, topology.n_sites)) < site_rel
        link_masks = rng.random((count, topology.n_links)) < link_rel
    return _block_counts(topology, site_masks, link_masks)


def _chunk_task(
    shared: Tuple[Topology, np.ndarray, np.ndarray],
    block: Tuple[int, np.random.Generator],
) -> np.ndarray:
    """The :func:`repro.pool.fan_out` task: one block's count matrix."""
    return _chunk_counts(*shared, *block)


def _sample_plan(n_samples: int, batch_size: int) -> List[int]:
    """Fixed decomposition of ``n_samples`` into labelling blocks."""
    full, rem = divmod(n_samples, batch_size)
    return [batch_size] * full + ([rem] if rem else [])


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
    masks come from an independent substream spawned off ``seed``, and
    the whole block is labelled by one block-diagonal
    ``connected_components`` call. With ``n_workers > 1`` the blocks are
    sharded across a process pool; because the substream assignment
    depends only on the block index, the returned matrix is bitwise
    identical for every ``n_workers`` value.
    """
    if n_samples <= 0:
        raise SimulationError(f"n_samples must be positive, got {n_samples}")
    if batch_size <= 0:
        raise SimulationError(f"batch_size must be positive, got {batch_size}")
    if n_workers <= 0:
        raise SimulationError(f"n_workers must be positive, got {n_workers}")

    site_rel = _reliability_vector(p, topology.n_sites, "site reliability")
    link_rel = _reliability_vector(r, topology.n_links, "link reliability")

    plan = _sample_plan(n_samples, batch_size)
    streams = spawn(seed if seed is not None else as_generator(None), len(plan))

    shared = (topology, site_rel, link_rel)
    blocks = list(zip(plan, streams))
    if n_workers == 1 or len(blocks) == 1:
        chunk_results = [_chunk_task(shared, block) for block in blocks]
    else:
        from repro.pool import fan_out

        chunk_results = fan_out(_chunk_task, shared, blocks, n_workers)
    # Summed in fixed block order, so the matrix is bitwise identical
    # for any worker count.
    counts = chunk_results[0]
    for chunk in chunk_results[1:]:
        counts += chunk
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
