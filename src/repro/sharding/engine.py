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
  the time-weighted density are kept per class and scattered to the items
  at batch end; counts are settled on the access cells the workload hands
  over. An epoch costs ``O(classes x sites + accesses)``.
- :class:`ReferenceShardEngine` walks one
  :class:`~repro.connectivity.dynamic.NetworkState` with one
  :class:`ComponentTracker` (on the item's votes row) and one
  :class:`~repro.protocols.quorum_consensus.QuorumConsensusProtocol`
  *per item*, evaluated in a Python loop. This is the retained reference
  path.

Every accumulator is either an integer-valued count or a float updated by
the same sequence of additions in both engines (an item's sequence is its
class's), so the two are **bitwise** equal — for any class structure, any
worker count, and any topology. The differential battery in
``tests/sharding/`` and ``verification/differential.py`` enforces exactly
that.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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


@dataclass
class ShardBatchResult:
    """Per-item accounting of one measured batch.

    Count arrays are int64 (exact); ``surv_*_time`` accumulate measured
    epoch durations during which *some* site could assemble the item's
    quorum; densities are ``(n_items, max_total_votes + 1)`` histograms
    of per-site component vote totals, weighted by time and by access
    count respectively. The pooled ACC and SURV views are
    :class:`~repro.sharding.runner.ShardRunResult`'s.
    """

    batch_index: int
    reads_submitted: np.ndarray
    reads_granted: np.ndarray
    writes_submitted: np.ndarray
    writes_granted: np.ndarray
    surv_read_time: np.ndarray
    surv_write_time: np.ndarray
    measured_time: float
    n_epochs: int
    n_events: int
    density_time: np.ndarray
    density_access: np.ndarray

    def bitwise_equal(self, other: "ShardBatchResult") -> bool:
        """True iff every payload array and scalar matches exactly."""
        return all(
            np.array_equal(getattr(self, field.name), getattr(other, field.name))
            for field in fields(self)
        )


class _ShardEngineBase:
    """The shared epoch driver; subclasses implement per-epoch accounting."""

    def __init__(self, config: ShardConfig):
        self.config = config

    # -- subclass hooks -------------------------------------------------
    def _begin_batch(self) -> object:
        """Build and return the per-batch network handle."""
        raise NotImplementedError

    def _account_epoch(self, network: object, result: ShardBatchResult,
                       duration: float, reads: Accesses, writes: Accesses) -> None:
        raise NotImplementedError

    def _end_batch(self, network: object, result: ShardBatchResult) -> None:
        """Settle what ``_account_epoch`` kept off ``result`` (nothing here)."""

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
        n_items = cfg.n_items
        width = cfg.max_total_votes + 1
        result = ShardBatchResult(
            batch_index=batch_index,
            reads_submitted=np.zeros(n_items, dtype=np.int64),
            reads_granted=np.zeros(n_items, dtype=np.int64),
            writes_submitted=np.zeros(n_items, dtype=np.int64),
            writes_granted=np.zeros(n_items, dtype=np.int64),
            surv_read_time=np.zeros(n_items, dtype=np.float64),
            surv_write_time=np.zeros(n_items, dtype=np.float64),
            measured_time=walk.horizon - warmup_end,
            n_epochs=0,
            n_events=0,
            density_time=np.zeros((n_items, width), dtype=np.float64),
            density_access=np.zeros((n_items, width), dtype=np.float64),
        )

        workload = cfg.workload
        for now, epoch_end, _ in walk.epochs():
            duration = epoch_end - now
            if duration > 0 and now >= warmup_end:
                reads, writes = workload.sample_epoch(
                    duration, access_rng, item_rng)
                self._account_epoch(network, result, duration, reads, writes)
                result.n_epochs += 1
        self._end_batch(network, result)
        result.n_events = walk.applied
        return result


#: Classes accounted at a time. With every item its own class this bounds
#: the ``(block, n_sites)`` temporaries; results do not depend on it.
_CLASS_BLOCK = 1024


class _ClassLedger(NetworkState):
    """A NetworkState with the one shared tracker and a batch's per-class
    books: component vote totals of the current state, SURV time and the
    time-weighted density."""

    __slots__ = ("tracker", "totals", "surv_read", "surv_write", "density_time")

    def __init__(self, topology, n_classes: int, width: int):
        super().__init__(topology)
        self.tracker = ComponentTracker(self)
        self.totals = np.zeros((n_classes, topology.n_sites), dtype=np.int64)
        self.surv_read = np.zeros(n_classes, dtype=np.float64)
        self.surv_write = np.zeros(n_classes, dtype=np.float64)
        self.density_time = np.zeros((n_classes, width), dtype=np.float64)


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

    def _account_epoch(self, network: _ClassLedger, result: ShardBatchResult,
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
                counts = np.bincount(
                    (totals + width * np.arange(size)[:, None]).ravel(),
                    minlength=size * width,
                ).reshape(size, width)
                network.density_time[block] += counts * duration
            self._settle(network.totals, reads, self._read_quorums,
                         result.reads_submitted, result.reads_granted,
                         result.density_access)
            self._settle(network.totals, writes, self._write_quorums,
                         result.writes_submitted, result.writes_granted,
                         result.density_access)

    def _settle(self, totals, accesses, quorums, submitted, granted,
                density_access) -> None:
        """Book one kind of access on the cells that saw any. The addends
        are integer-valued, so the sums are exact in any order."""
        cells, count = accesses
        items, sites = np.divmod(cells, totals.shape[1])
        classes = self.class_of[items]
        votes = totals[classes, sites]
        np.add.at(submitted, items, count)
        np.add.at(granted, items, count * (votes >= quorums[classes]))
        np.add.at(density_access, (items, votes), count)

    def _end_batch(self, network: _ClassLedger, result: ShardBatchResult) -> None:
        # An item's sequence of float additions is exactly its class's,
        # so handing every item its class's sums is bitwise what adding
        # per item would have produced. ``mode="clip"`` only lets take()
        # write into ``out`` unbuffered; class_of is in range.
        with _current_recorder().phase("shard.scatter"):
            for per_item, per_class in (
                (result.surv_read_time, network.surv_read),
                (result.surv_write_time, network.surv_write),
                (result.density_time, network.density_time),
            ):
                np.take(per_class, self.class_of, axis=0, out=per_item, mode="clip")


def _dense(accesses: Accesses, shape) -> np.ndarray:
    """The ``(n_items, n_sites)`` count grid of one kind of access."""
    cells, counts = accesses
    grid = np.zeros(shape[0] * shape[1], dtype=np.int64)
    grid[cells] = counts
    return grid.reshape(shape)


class _ItemTrackers(NetworkState):
    """A NetworkState with one tracker and one protocol per item."""

    __slots__ = ("trackers", "protocols")

    def __init__(self, config: ShardConfig):
        super().__init__(config.topology)
        self.trackers = [ComponentTracker(self, votes=row) for row in config.votes]
        self.protocols = [
            QuorumConsensusProtocol(QuorumAssignment.from_read_quorum(int(t), int(q)))
            for t, q in zip(config.total_votes, config.read_quorums)
        ]


class ReferenceShardEngine(_ShardEngineBase):
    """The retained per-item loop: one tracker and one protocol per item,
    evaluated item by item. Slow on purpose — this is the oracle the
    vectorized engine must match bitwise."""

    def _begin_batch(self) -> _ItemTrackers:
        return _ItemTrackers(self.config)

    def _account_epoch(self, network: _ItemTrackers, result: ShardBatchResult,
                       duration: float, reads: Accesses, writes: Accesses) -> None:
        width = result.density_time.shape[1]
        shape = (self.config.n_items, self.config.topology.n_sites)
        reads, writes = _dense(reads, shape), _dense(writes, shape)
        for i, (tracker, protocol) in enumerate(
                zip(network.trackers, network.protocols)):
            read_mask, write_mask = protocol.grant_masks(tracker)
            r_row = reads[i]
            w_row = writes[i]
            result.reads_submitted[i] += int(r_row.sum())
            result.writes_submitted[i] += int(w_row.sum())
            result.reads_granted[i] += int(r_row[read_mask].sum())
            result.writes_granted[i] += int(w_row[write_mask].sum())
            if read_mask.any():
                result.surv_read_time[i] += duration
            if write_mask.any():
                result.surv_write_time[i] += duration
            totals = tracker.vote_totals
            counts = np.bincount(totals, minlength=width)
            result.density_time[i] += counts * duration
            result.density_access[i] += np.bincount(
                totals,
                weights=(r_row + w_row).astype(np.float64),
                minlength=width,
            )
