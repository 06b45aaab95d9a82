"""Seedable random-number-stream helpers.

Every stochastic component in the library (failure processes, access
workloads, Monte-Carlo density estimators) takes either an integer seed or a
:class:`numpy.random.Generator`. These helpers normalize that convention and
provide *independent substreams* so that, e.g., the failure process of one
batch cannot perturb the access stream of another — a requirement for the
paper's batch-means confidence intervals to be honest.

The substream mechanism uses :class:`numpy.random.SeedSequence` spawning,
which guarantees statistical independence between children regardless of how
many streams are drawn.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["RandomState", "as_generator", "spawn", "stream_for"]

#: Anything accepted where a source of randomness is required.
RandomState = Union[None, int, np.random.SeedSequence, np.random.Generator]


def as_generator(seed: RandomState = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a nondeterministically-seeded generator; an ``int`` or
    :class:`~numpy.random.SeedSequence` yields a deterministic one; an
    existing generator is returned unchanged (not copied) so callers can
    share a stream on purpose.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(seed: RandomState, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent generators from ``seed``.

    When ``seed`` is already a generator, children are derived from its
    internal bit generator via ``spawn`` (numpy >= 1.25) or by drawing seeds,
    preserving determinism of the parent stream.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Drawing child seeds from the parent stream keeps the whole tree
        # reproducible from the parent's original seed.
        child_seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in child_seeds]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def stream_for(seed: RandomState, *indices: int) -> np.random.Generator:
    """Deterministically derive a generator for a coordinate tuple.

    Used by batch runners: ``stream_for(seed, batch_index)`` gives each batch
    an independent stream that does not depend on how many batches ran
    before it, so adding batches never changes earlier results.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "stream_for requires a reproducible seed (int/SeedSequence/None), "
            "not an already-instantiated Generator"
        )
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    child = np.random.SeedSequence(entropy=seq.entropy, spawn_key=tuple(indices))
    return np.random.default_rng(child)
