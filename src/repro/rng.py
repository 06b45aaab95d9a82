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

from typing import Optional, Union

import numpy as np

__all__ = ["RandomState", "Substreams", "as_generator", "spawn", "stream_for"]

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


class Substreams:
    """The ``count`` generators of :func:`spawn`, each made when it is asked for.

    ``Substreams(seed, count)[i]`` is the same stream as
    ``spawn(seed, count)[i]``, but no generator exists before it is asked
    for, so a caller that runs one child at a time holds one at a time.
    From an ``int`` or ``None`` seed the object's size does not grow with
    ``count``. A :class:`~numpy.random.SeedSequence` is spawned up front,
    which advances it as :func:`spawn` does; a parent generator draws its
    ``count`` child seeds up front, 8 bytes each. The object pickles, so
    worker processes can derive their own children.
    """

    def __init__(self, seed: RandomState, count: int) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._count = count
        self._root: Optional[np.random.SeedSequence] = None
        if isinstance(seed, np.random.Generator):
            # Drawing child seeds from the parent stream keeps the whole
            # tree reproducible from the parent's original seed.
            self._children = seed.integers(0, 2**63 - 1, size=count)
        elif isinstance(seed, np.random.SeedSequence):
            self._children = seed.spawn(count)
        else:
            self._root = np.random.SeedSequence(seed)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> np.random.Generator:
        if not 0 <= index < self._count:
            raise IndexError(f"substream {index} of {self._count}")
        root = self._root
        if root is None:
            return np.random.default_rng(self._children[index])
        # What ``root.spawn`` makes as its ``index``-th child.
        return np.random.default_rng(np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (index,), pool_size=root.pool_size))


def spawn(seed: RandomState, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent generators from ``seed``.

    When ``seed`` is already a generator, children are derived from its
    stream by drawing one seed each, preserving determinism of the
    parent stream (:class:`Substreams` makes the same children lazily).
    """
    children = Substreams(seed, count)
    return [children[i] for i in range(count)]


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
