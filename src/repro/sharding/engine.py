"""Vectorized sharded engine plus its per-item ``multidb`` reference.

Both engines drive the *same* epoch loop as
:class:`~repro.simulation.engine.SimulationEngine` — one generated
failure history, primed and walked by the shared
:class:`~repro.simulation.engine.HistoryWalk` — and sample accesses as
it does, so the random streams are consumed identically (batch ``k``
derives from ``stream_for(seed, k)`` exactly as the single-item engine
does). They differ only in how one epoch is accounted:

- :class:`ShardedEngine` computes ONE component labelling per network
  state (the shared :class:`ComponentTracker`) and evaluates every
  item's quorum decision against it via ``bincount``/gather over an
  ``(n_items, n_sites)`` vote matrix — the PR 5 discipline applied to
  items instead of enumeration states.
- :class:`ReferenceShardEngine` drives a
  :class:`~repro.replication.multidb.MultiItemDatabase` — one
  :class:`ComponentTracker` and one protocol *per item*, evaluated in a
  Python loop. This is the retained reference path.

Every accumulator is either an int64 count or a float updated by the
same sequence of additions in both engines, so the two are **bitwise**
equal — for any chunk size, any worker count, and any topology. The
differential battery in ``tests/sharding/`` and
``verification/differential.py`` enforces exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.errors import ShardingError
from repro.quorum.assignment import QuorumAssignment
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.replication.item import ReplicatedItem
from repro.replication.multidb import ItemBinding, MultiItemDatabase
from repro.rng import spawn, stream_for
from repro.sharding.config import ShardConfig
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
    count respectively.
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

    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        return int(self.reads_submitted.shape[0])

    @property
    def item_availability(self) -> np.ndarray:
        """Per-item ACC = granted / submitted (1.0 for idle items)."""
        submitted = self.reads_submitted + self.writes_submitted
        granted = self.reads_granted + self.writes_granted
        out = np.ones(self.n_items, dtype=np.float64)
        active = submitted > 0
        out[active] = granted[active] / submitted[active]
        return out

    @property
    def availability(self) -> float:
        """Overall ACC pooled across items."""
        submitted = int(self.reads_submitted.sum() + self.writes_submitted.sum())
        granted = int(self.reads_granted.sum() + self.writes_granted.sum())
        return granted / submitted if submitted > 0 else 1.0

    @property
    def surv_read(self) -> np.ndarray:
        if self.measured_time <= 0:
            return np.zeros(self.n_items, dtype=np.float64)
        return self.surv_read_time / self.measured_time

    @property
    def surv_write(self) -> np.ndarray:
        if self.measured_time <= 0:
            return np.zeros(self.n_items, dtype=np.float64)
        return self.surv_write_time / self.measured_time

    def bitwise_equal(self, other: "ShardBatchResult") -> bool:
        """True iff every payload array and scalar matches exactly."""
        return (
            self.batch_index == other.batch_index
            and self.measured_time == other.measured_time
            and self.n_epochs == other.n_epochs
            and self.n_events == other.n_events
            and np.array_equal(self.reads_submitted, other.reads_submitted)
            and np.array_equal(self.reads_granted, other.reads_granted)
            and np.array_equal(self.writes_submitted, other.writes_submitted)
            and np.array_equal(self.writes_granted, other.writes_granted)
            and np.array_equal(self.surv_read_time, other.surv_read_time)
            and np.array_equal(self.surv_write_time, other.surv_write_time)
            and np.array_equal(self.density_time, other.density_time)
            and np.array_equal(self.density_access, other.density_access)
        )


class _ShardEngineBase:
    """The shared epoch driver; subclasses implement per-epoch accounting."""

    def __init__(self, config: ShardConfig, chunk_size: Optional[int] = None):
        self.config = config
        if chunk_size is not None and chunk_size < 1:
            raise ShardingError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size

    # -- subclass hooks -------------------------------------------------
    def _begin_batch(self) -> object:
        """Build and return the per-batch network handle."""
        raise NotImplementedError

    def _account_epoch(
        self,
        network: object,
        result: ShardBatchResult,
        duration: float,
        reads: np.ndarray,
        writes: np.ndarray,
    ) -> None:
        raise NotImplementedError

    # -- driver ---------------------------------------------------------
    def run_batch(self, batch_index: int) -> ShardBatchResult:
        """Warm-up plus one measured batch, streams per (seed, batch_index)."""
        cfg = self.config
        topo = cfg.topology
        batch_seed = (
            stream_for(cfg.seed, batch_index) if cfg.seed is not None else None
        )
        # Three substreams for parity with the single-item engine's
        # (failure, access, chaos) split; chaos is unused here but keeps
        # the first two streams identical for the same seed.
        failure_rng, access_rng, _chaos_rng = spawn(batch_seed, 3)

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
                reads, writes = workload.sample_epoch(duration, access_rng)
                self._account_epoch(network, result, duration, reads, writes)
                result.n_epochs += 1
        result.n_events = walk.applied
        return result

    # -- common helpers -------------------------------------------------
    def _chunks(self) -> Iterator[Tuple[int, int]]:
        n_items = self.config.n_items
        step = self.chunk_size or n_items
        for start in range(0, n_items, step):
            yield start, min(start + step, n_items)


class _VectorNetwork(NetworkState):
    """A NetworkState with the single shared tracker (labels only)."""

    __slots__ = ("tracker",)

    def __init__(self, topology):
        super().__init__(topology)
        self.tracker = ComponentTracker(self)


class ShardedEngine(_ShardEngineBase):
    """The vectorized engine: one labelling per state, all items at once.

    ``chunk_size`` bounds the ``(chunk, n_sites)`` working set for very
    large item counts; results are bitwise identical for every choice
    because all accumulators are integers or per-cell float additions.
    """

    def _begin_batch(self) -> _VectorNetwork:
        return _VectorNetwork(self.config.topology)

    def _account_epoch(
        self,
        network: _VectorNetwork,
        result: ShardBatchResult,
        duration: float,
        reads: np.ndarray,
        writes: np.ndarray,
    ) -> None:
        cfg = self.config
        phases = _current_recorder().phases
        with phases.phase("shard.label"):
            labels = network.tracker.labels
        up = labels >= 0
        lab = labels[up]
        n_comps = int(lab.max()) + 1 if lab.size else 0
        width = result.density_time.shape[1]
        q_r = cfg.read_quorums
        q_w = cfg.write_quorums

        with phases.phase("shard.account"):
            for start, stop in self._chunks():
                chunk = stop - start
                votes = cfg.votes[start:stop]
                # One bincount turns the shared labelling into per-item
                # component vote sums: cell (i, c) accumulates item i's
                # votes over the up sites labelled c. Sums of small
                # integers in float64 are exact, so the cast back to
                # int64 is lossless.
                totals = np.zeros((chunk, cfg.topology.n_sites), dtype=np.int64)
                if n_comps:
                    flat = lab[None, :] + n_comps * np.arange(chunk)[:, None]
                    comp_sums = np.bincount(
                        flat.ravel(),
                        weights=votes[:, up].ravel(),
                        minlength=chunk * n_comps,
                    ).reshape(chunk, n_comps).astype(np.int64)
                    totals[:, up] = comp_sums[:, lab]
                read_mask = totals >= q_r[start:stop, None]
                write_mask = totals >= q_w[start:stop, None]

                r_chunk = reads[start:stop]
                w_chunk = writes[start:stop]
                result.reads_submitted[start:stop] += r_chunk.sum(axis=1)
                result.writes_submitted[start:stop] += w_chunk.sum(axis=1)
                result.reads_granted[start:stop] += (
                    r_chunk * read_mask
                ).sum(axis=1)
                result.writes_granted[start:stop] += (
                    w_chunk * write_mask
                ).sum(axis=1)
                result.surv_read_time[start:stop][read_mask.any(axis=1)] += duration
                result.surv_write_time[start:stop][write_mask.any(axis=1)] += duration

                dens_flat = (
                    totals + width * np.arange(chunk, dtype=np.int64)[:, None]
                ).ravel()
                counts = np.bincount(
                    dens_flat, minlength=chunk * width
                ).reshape(chunk, width)
                result.density_time[start:stop] += counts * duration
                access_w = np.bincount(
                    dens_flat,
                    weights=(r_chunk + w_chunk).ravel().astype(np.float64),
                    minlength=chunk * width,
                ).reshape(chunk, width)
                result.density_access[start:stop] += access_w


class _MultiDbNetwork:
    """Adapter driving a :class:`MultiItemDatabase` from link-id events."""

    def __init__(self, config: ShardConfig):
        topo = config.topology
        totals = config.total_votes
        bindings: List[ItemBinding] = []
        for i in range(config.n_items):
            votes_row = config.votes[i]
            sites = tuple(int(s) for s in np.nonzero(votes_row)[0])
            item = ReplicatedItem(
                f"item-{i:05d}",
                sites,
                tuple(int(votes_row[s]) for s in sites),
            )
            assignment = QuorumAssignment.from_read_quorum(
                int(totals[i]), int(config.read_quorums[i])
            )
            bindings.append(ItemBinding(item, QuorumConsensusProtocol(assignment)))
        self.db = MultiItemDatabase(topo, bindings)
        self.item_ids = [b.item.item_id for b in bindings]
        self._links = topo.links

    def fail_site(self, site: int) -> None:
        self.db.fail_site(site)

    def repair_site(self, site: int) -> None:
        self.db.repair_site(site)

    def fail_link(self, link_id: int) -> None:
        link = self._links[link_id]
        self.db.fail_link(link.a, link.b)

    def repair_link(self, link_id: int) -> None:
        link = self._links[link_id]
        self.db.repair_link(link.a, link.b)


class ReferenceShardEngine(_ShardEngineBase):
    """The retained per-item loop: a ``MultiItemDatabase`` evaluated item
    by item with one tracker and one protocol each. Slow on purpose —
    this is the oracle the vectorized engine must match bitwise."""

    def _begin_batch(self) -> _MultiDbNetwork:
        return _MultiDbNetwork(self.config)

    def _account_epoch(
        self,
        network: _MultiDbNetwork,
        result: ShardBatchResult,
        duration: float,
        reads: np.ndarray,
        writes: np.ndarray,
    ) -> None:
        db = network.db
        width = result.density_time.shape[1]
        for i, item_id in enumerate(network.item_ids):
            tracker = db.tracker_for(item_id)
            protocol = db.binding_for(item_id).protocol
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
