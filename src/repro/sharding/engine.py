"""Vectorized sharded engine plus its per-item reference loop.

Both engines drive the *same* epoch loop as
:class:`~repro.simulation.engine.SimulationEngine` — one generated
failure history, primed and walked by the shared
:class:`~repro.simulation.engine.HistoryWalk` — and sample accesses as
it does, so the random streams are consumed identically (batch ``k``
derives from ``stream_for(seed, k)`` exactly as the single-item engine
does). They differ only in how one epoch is accounted:

- :class:`ShardedEngine` computes ONE component labelling per network
  state (the shared :class:`ComponentTracker`) and evaluates it once per
  **quorum class** — the items sharing a ``(votes row, q_r)`` pair, which
  the protocol cannot tell apart. Component vote totals, SURV time and
  the time-weighted density are kept per class; counts are settled on the
  access cells the workload hands over. An epoch costs
  ``O(classes x sites + accesses)``.
- :class:`ReferenceShardEngine` walks one
  :class:`~repro.connectivity.dynamic.NetworkState` with one
  :class:`ComponentTracker` (on the item's votes row) and one
  :class:`~repro.protocols.quorum_consensus.QuorumConsensusProtocol`
  *per item*, evaluated in a Python loop. This is the retained reference
  path.

Both hand over a :class:`ShardBatchResult` in one layout: the four access
counts per item, SURV time and the time-weighted density per class with
the items' ``class_of`` (the reference makes every item its own class),
and the access-weighted density as the ``(item, votes)`` cells it
touched. Every accumulator is either an integer-valued count or a float
updated by the same sequence of additions in both engines (an item's
sequence is its class's), so the per-item views of the two are
**bitwise** equal — for any class structure, any worker count, and any
topology. The differential battery in ``tests/sharding/`` and
``verification/differential.py`` enforces exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.quorum.assignment import QuorumAssignment
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.rng import spawn, stream_for
from repro.sharding.config import ShardConfig
from repro.sharding.workload import Accesses
from repro.simulation.engine import HistoryWalk
from repro.telemetry.recorder import current as _current_recorder

__all__ = [
    "ShardBatchResult",
    "ShardedEngine",
    "ReferenceShardEngine",
]


#: A batch result's per-item names, which :meth:`ShardBatchResult.bitwise_equal`
#: compares.
_PER_ITEM = (
    "batch_index", "measured_time", "n_epochs", "n_events",
    "reads_submitted", "reads_granted", "writes_submitted", "writes_granted",
    "surv_read_time", "surv_write_time", "density_time", "density_access",
)


@dataclass
class ShardBatchResult:
    """One measured batch, stored as the engine computed it.

    The four access counts are per item (int64, exact). SURV time and the
    time-weighted density are per quorum class: ``class_surv_*_time``
    holds, per class, the measured epoch time during which *some* site
    could assemble the class's quorum, and ``class_density_time`` is the
    ``(n_classes, max_total_votes + 1)`` histogram of per-site component
    vote totals weighted by time; ``class_of`` maps items to classes. The
    access-weighted density keeps only the ``(item, votes)`` cells that
    saw an access: ascending flat cells ``item * width + votes`` and their
    integer-valued float64 counts.

    The per-item names — ``surv_read_time``, ``surv_write_time``,
    ``density_time`` and ``density_access`` — are read-only properties
    that rebuild the dense per-item arrays. The pooled ACC and SURV views
    are :class:`~repro.sharding.runner.ShardRunResult`'s.
    """

    batch_index: int
    reads_submitted: np.ndarray
    reads_granted: np.ndarray
    writes_submitted: np.ndarray
    writes_granted: np.ndarray
    measured_time: float
    n_epochs: int
    n_events: int
    class_of: np.ndarray
    class_surv_read_time: np.ndarray
    class_surv_write_time: np.ndarray
    class_density_time: np.ndarray
    access_cells: np.ndarray
    access_counts: np.ndarray

    @property
    def surv_read_time(self) -> np.ndarray:
        return self.class_surv_read_time[self.class_of]

    @property
    def surv_write_time(self) -> np.ndarray:
        return self.class_surv_write_time[self.class_of]

    @property
    def density_time(self) -> np.ndarray:
        """The ``(n_items, width)`` time-weighted density table."""
        return self.class_density_time[self.class_of]

    @property
    def density_access(self) -> np.ndarray:
        """The ``(n_items, width)`` access-weighted density table."""
        n_items, width = self.class_of.shape[0], self.class_density_time.shape[1]
        table = np.zeros(n_items * width, dtype=np.float64)
        table[self.access_cells] = self.access_counts
        return table.reshape(n_items, width)

    def bitwise_equal(self, other: "ShardBatchResult") -> bool:
        """True iff every per-item array and scalar matches exactly."""
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _PER_ITEM
        )


class _Books(NetworkState):
    """A batch's network state plus its time books, one row per class:
    SURV time and the time-weighted density."""

    __slots__ = ("surv_read", "surv_write", "density_time")

    def __init__(self, topology, n_rows: int, width: int):
        super().__init__(topology)
        self.surv_read = np.zeros(n_rows, dtype=np.float64)
        self.surv_write = np.zeros(n_rows, dtype=np.float64)
        self.density_time = np.zeros((n_rows, width), dtype=np.float64)


class _ShardEngineBase:
    """The shared epoch driver; subclasses implement per-epoch accounting."""

    def __init__(self, config: ShardConfig):
        self.config = config

    # -- subclass hooks -------------------------------------------------
    def _begin_batch(self) -> _Books:
        """Build and return the per-batch network handle."""
        raise NotImplementedError

    def _account_epoch(self, network: _Books, counts: np.ndarray,
                       duration: float, reads: Accesses, writes: Accesses) -> None:
        """Book one epoch; ``counts`` rows are reads submitted / granted,
        writes submitted / granted, per item."""
        raise NotImplementedError

    def _end_batch(self, network: _Books):
        """``(class_of, access_cells, access_counts)`` of the batch."""
        raise NotImplementedError

    # -- driver ---------------------------------------------------------
    def run_batch(self, batch_index: int) -> ShardBatchResult:
        """Warm-up plus one measured batch, streams per (seed, batch_index)."""
        cfg = self.config
        batch_seed = (
            stream_for(cfg.seed, batch_index) if cfg.seed is not None else None
        )
        # The single-item engine's (failure, access, chaos) split: the first
        # two streams are its own for the same seed, and the third, which
        # the single-item engine spends on chaos, draws the accesses' items.
        failure_rng, access_rng, item_rng = spawn(batch_seed, 3)

        network = self._begin_batch()
        walk = HistoryWalk(cfg, network, failure_rng)

        warmup_end = walk.warmup_end
        counts = np.zeros((4, cfg.n_items), dtype=np.int64)
        n_epochs = 0
        workload = cfg.workload
        for now, epoch_end, _ in walk.epochs():
            duration = epoch_end - now
            if duration > 0 and now >= warmup_end:
                reads, writes = workload.sample_epoch(
                    duration, access_rng, item_rng)
                self._account_epoch(network, counts, duration, reads, writes)
                n_epochs += 1
        class_of, access_cells, access_counts = self._end_batch(network)
        reads_submitted, reads_granted, writes_submitted, writes_granted = counts
        return ShardBatchResult(
            batch_index=batch_index,
            reads_submitted=reads_submitted,
            reads_granted=reads_granted,
            writes_submitted=writes_submitted,
            writes_granted=writes_granted,
            measured_time=walk.horizon - warmup_end,
            n_epochs=n_epochs,
            n_events=walk.applied,
            class_of=class_of,
            class_surv_read_time=network.surv_read,
            class_surv_write_time=network.surv_write,
            class_density_time=network.density_time,
            access_cells=access_cells,
            access_counts=access_counts,
        )


#: Classes accounted at a time. With every item its own class this bounds
#: the ``(block, n_sites)`` temporaries; results do not depend on it.
_CLASS_BLOCK = 1024


class _ClassLedger(_Books):
    """The books kept per class, with the one shared tracker, the
    component vote totals of the current state, and the access cells
    booked so far."""

    __slots__ = ("tracker", "totals", "cells", "cell_counts")

    def __init__(self, topology, n_classes: int, width: int):
        super().__init__(topology, n_classes, width)
        self.tracker = ComponentTracker(self)
        self.totals = np.zeros((n_classes, topology.n_sites), dtype=np.int64)
        self.cells = []
        self.cell_counts = []


def _merge_cells(cells, counts):
    """The distinct cells in ascending order and each one's summed count.

    Integer sums, so exact in any order. A sort and ``np.add.reduceat``:
    ``np.unique`` would import ``numpy.ma``.
    """
    if not cells:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    cells = np.concatenate(cells)
    order = np.argsort(cells)
    cells = cells[order]
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    summed = np.add.reduceat(np.concatenate(counts)[order], starts)
    return cells[starts], summed.astype(np.float64)


class ShardedEngine(_ShardEngineBase):
    """The vectorized engine: one labelling per state, one row per class.

    Items are grouped once per engine by exact ``(votes row, q_r)``
    (:meth:`ShardConfig.quorum_classes`); all-distinct items are the same
    code with ``n_classes == n_items``.
    """

    def __init__(self, config: ShardConfig):
        super().__init__(config)
        self.class_of, first = config.quorum_classes()
        self.n_classes = int(first.shape[0])
        self._votes = config.votes[first]
        self._read_quorums = config.read_quorums[first]
        self._total_votes = self._votes.sum(axis=1)
        self._write_quorums = self._total_votes - self._read_quorums + 1

    def _begin_batch(self) -> _ClassLedger:
        width = int(self._total_votes.max()) + 1  # == config.max_total_votes + 1
        return _ClassLedger(self.config.topology, self.n_classes, width)

    def _account_epoch(self, network: _ClassLedger, counts: np.ndarray,
                       duration: float, reads: Accesses, writes: Accesses) -> None:
        recorder = _current_recorder()
        with recorder.phase("shard.label"):
            labels = network.tracker.labels
        up = labels >= 0
        lab = labels[up]
        n_comps = int(lab.max()) + 1 if lab.size else 0
        width = network.density_time.shape[1]

        with recorder.phase("shard.account"):
            for start in range(0, self.n_classes, _CLASS_BLOCK):
                block = slice(start, start + _CLASS_BLOCK)
                totals = network.totals[block]
                size = totals.shape[0]
                # One bincount turns the shared labelling into per-class
                # component vote sums: cell (c, k) accumulates class c's
                # votes over the up sites labelled k. Sums of small
                # integers in float64 are exact, so the cast back to
                # int64 is lossless.
                totals[:] = 0
                if n_comps:
                    flat = lab[None, :] + n_comps * np.arange(size)[:, None]
                    comp_sums = np.bincount(
                        flat.ravel(),
                        weights=self._votes[block][:, up].ravel(),
                        minlength=size * n_comps,
                    ).reshape(size, n_comps).astype(np.int64)
                    totals[:, up] = comp_sums[:, lab]
                # Some site can assemble a quorum iff the best one can.
                best = totals.max(axis=1)
                network.surv_read[block][best >= self._read_quorums[block]] += duration
                network.surv_write[block][best >= self._write_quorums[block]] += duration
                histogram = np.bincount(
                    (totals + width * np.arange(size)[:, None]).ravel(),
                    minlength=size * width,
                ).reshape(size, width)
                network.density_time[block] += histogram * duration
            self._settle(network, reads, self._read_quorums, counts[0], counts[1])
            self._settle(network, writes, self._write_quorums, counts[2], counts[3])

    def _settle(self, network: _ClassLedger, accesses: Accesses, quorums,
                submitted, granted) -> None:
        """Book one kind of access on the cells that saw any, and keep
        those cells' ``(item, votes)`` for the access-weighted density.
        The addends are integer-valued, so the sums are exact in any
        order."""
        cells, count = accesses
        if not cells.size:
            return
        totals = network.totals
        items, sites = np.divmod(cells, totals.shape[1])
        classes = self.class_of[items]
        votes = totals[classes, sites]
        np.add.at(submitted, items, count)
        np.add.at(granted, items, count * (votes >= quorums[classes]))
        network.cells.append(items * network.density_time.shape[1] + votes)
        network.cell_counts.append(count)

    def _end_batch(self, network: _ClassLedger):
        with _current_recorder().phase("shard.merge"):
            cells, counts = _merge_cells(network.cells, network.cell_counts)
        return self.class_of, cells, counts


def _dense(accesses: Accesses, shape) -> np.ndarray:
    """The ``(n_items, n_sites)`` count grid of one kind of access."""
    cells, counts = accesses
    grid = np.zeros(shape[0] * shape[1], dtype=np.int64)
    grid[cells] = counts
    return grid.reshape(shape)


class _ItemTrackers(_Books):
    """The books kept per item, with one tracker and one protocol per
    item and the dense access-weighted density."""

    __slots__ = ("trackers", "protocols", "density_access")

    def __init__(self, config: ShardConfig):
        width = config.max_total_votes + 1
        super().__init__(config.topology, config.n_items, width)
        self.trackers = [ComponentTracker(self, votes=row) for row in config.votes]
        self.protocols = [
            QuorumConsensusProtocol(QuorumAssignment.from_read_quorum(int(t), int(q)))
            for t, q in zip(config.total_votes, config.read_quorums)
        ]
        self.density_access = np.zeros((config.n_items, width), dtype=np.float64)


class ReferenceShardEngine(_ShardEngineBase):
    """The retained per-item loop: one tracker and one protocol per item,
    evaluated item by item. Slow on purpose — this is the oracle the
    vectorized engine must match bitwise. Every item is its own class."""

    def _begin_batch(self) -> _ItemTrackers:
        return _ItemTrackers(self.config)

    def _account_epoch(self, network: _ItemTrackers, counts: np.ndarray,
                       duration: float, reads: Accesses, writes: Accesses) -> None:
        width = network.density_time.shape[1]
        shape = (self.config.n_items, self.config.topology.n_sites)
        reads, writes = _dense(reads, shape), _dense(writes, shape)
        reads_submitted, reads_granted, writes_submitted, writes_granted = counts
        for i, (tracker, protocol) in enumerate(
                zip(network.trackers, network.protocols)):
            read_mask, write_mask = protocol.grant_masks(tracker)
            r_row = reads[i]
            w_row = writes[i]
            reads_submitted[i] += int(r_row.sum())
            writes_submitted[i] += int(w_row.sum())
            reads_granted[i] += int(r_row[read_mask].sum())
            writes_granted[i] += int(w_row[write_mask].sum())
            if read_mask.any():
                network.surv_read[i] += duration
            if write_mask.any():
                network.surv_write[i] += duration
            totals = tracker.vote_totals
            histogram = np.bincount(totals, minlength=width)
            network.density_time[i] += histogram * duration
            network.density_access[i] += np.bincount(
                totals,
                weights=(r_row + w_row).astype(np.float64),
                minlength=width,
            )

    def _end_batch(self, network: _ItemTrackers):
        table = network.density_access.ravel()
        cells = np.flatnonzero(table)
        return np.arange(self.config.n_items), cells, table[cells]
