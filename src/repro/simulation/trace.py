"""Network-history traces: record, inspect, and replay failure histories.

A trace captures the sequence of topology-change events a simulation
produced, plus the initial network state. Uses:

- **debugging / observability** — inspect exactly which partitions
  occurred and when;
- **replay** — drive a :class:`~repro.connectivity.dynamic.NetworkState`
  through the same history epoch by epoch (a paired protocol comparison
  needs no replay: a batch's failure history depends on
  ``(seed, batch)`` alone, so one config run under each protocol already
  shares it);
- **serialization** — traces round-trip through plain dicts for storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.errors import SimulationError
from repro.simulation.events import EVENT_KINDS, Event, appliers
from repro.topology.model import Topology

__all__ = ["NetworkTrace", "TraceReplayer", "TRACE_SCHEMA_VERSION"]

#: Serialized-trace schema version. v1 payloads predate the ``sources``
#: provenance list (and carry no ``schema`` key at all); v2 adds both.
TRACE_SCHEMA_VERSION = 2


@dataclass
class NetworkTrace:
    """An ordered record of topology-change events."""

    n_sites: int
    n_links: int
    initial_site_up: np.ndarray
    initial_link_up: np.ndarray
    events: List[Tuple[float, str, int]] = field(default_factory=list)
    #: Event provenance, parallel to ``events`` ("stochastic" or "chaos").
    #: Traces deserialized from older payloads default to all-stochastic.
    sources: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, topology: Topology,
              state: Optional[NetworkState] = None) -> "NetworkTrace":
        """A trace starting from ``state`` (default: everything up)."""
        if state is None:
            site_up = np.ones(topology.n_sites, dtype=bool)
            link_up = np.ones(topology.n_links, dtype=bool)
        else:
            site_up = state.site_up.copy()
            link_up = state.link_up.copy()
        return cls(topology.n_sites, topology.n_links, site_up, link_up)

    def record(self, event: Event) -> None:
        """Append one topology-change event (must be time-ordered)."""
        if not event.kind.is_topology_change:
            raise SimulationError(f"cannot record non-topology event {event.kind}")
        if self.events and event.time < self.events[-1][0]:
            raise SimulationError(
                f"event at {event.time} precedes last recorded time {self.events[-1][0]}"
            )
        self.events.append((event.time, event.kind.value, event.target))
        self.sources.append(getattr(event, "source", "stochastic"))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def duration(self) -> float:
        """Time of the last recorded event (0 for an empty trace)."""
        return self.events[-1][0] if self.events else 0.0

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for _, kind, _ in self.events:
            out[kind] = out.get(kind, 0) + 1
        return out

    def counts_by_source(self) -> Dict[str, int]:
        """How many recorded events came from each provenance tag."""
        out: Dict[str, int] = {}
        for source in self._padded_sources():
            out[source] = out.get(source, 0) + 1
        return out

    def chaos_events(self) -> List[Tuple[float, str, int]]:
        """Only the injected (scripted) events — the *fault trace* proper."""
        return [
            event
            for event, source in zip(self.events, self._padded_sources())
            if source == "chaos"
        ]

    def _padded_sources(self) -> List[str]:
        """Sources aligned to len(events) for traces built without them.

        Pads with ``"stochastic"`` when short (pre-provenance traces) and
        truncates when long (never produced here, but a corrupt payload
        must not smear provenance onto events that don't exist).
        """
        n = len(self.events)
        missing = n - len(self.sources)
        if missing > 0:
            return self.sources + ["stochastic"] * missing
        if missing < 0:
            return self.sources[:n]
        return self.sources

    def to_dict(self) -> Dict:
        """JSON-compatible serialization (schema v2).

        ``sources`` is always emitted at exactly ``len(events)`` entries —
        including the empty-events case — so ``from_dict(to_dict(t))`` is
        the identity for any trace this class can produce.
        """
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "n_sites": self.n_sites,
            "n_links": self.n_links,
            "initial_site_up": self.initial_site_up.astype(int).tolist(),
            "initial_link_up": self.initial_link_up.astype(int).tolist(),
            "events": [[t, k, target] for t, k, target in self.events],
            "sources": list(self._padded_sources()),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "NetworkTrace":
        schema = int(payload.get("schema", 1))
        if not 1 <= schema <= TRACE_SCHEMA_VERSION:
            raise SimulationError(
                f"unsupported trace schema version {schema} "
                f"(this build reads 1..{TRACE_SCHEMA_VERSION})"
            )
        try:
            events = [(float(t), str(k), int(x)) for t, k, x in payload["events"]]
            sources = [str(s) for s in payload.get("sources", [])]
            if len(sources) > len(events):
                raise SimulationError(
                    f"trace dict has {len(events)} events but {len(sources)} sources"
                )
            if len(sources) < len(events):
                # v1 payloads (or hand-built dicts) lack provenance; align
                # eagerly so a later record() can't misattribute its source.
                sources = sources + ["stochastic"] * (len(events) - len(sources))
            return cls(
                n_sites=int(payload["n_sites"]),
                n_links=int(payload["n_links"]),
                initial_site_up=np.asarray(payload["initial_site_up"], dtype=bool),
                initial_link_up=np.asarray(payload["initial_link_up"], dtype=bool),
                events=events,
                sources=sources,
            )
        except KeyError as missing:
            raise SimulationError(f"trace dict missing key {missing}") from None


class TraceReplayer:
    """Drives a network state through a recorded trace.

    Iterating yields ``(epoch_start, epoch_end, tracker)`` triples — the
    constant-partition intervals between events, exactly the granularity
    the availability accounting works at. The tracker is live (it views
    the replayer's mutable state), so consumers must read what they need
    before advancing.
    """

    def __init__(self, topology: Topology, trace: NetworkTrace) -> None:
        if (topology.n_sites, topology.n_links) != (trace.n_sites, trace.n_links):
            raise SimulationError(
                f"trace was recorded on a ({trace.n_sites} sites, {trace.n_links} links) "
                f"network; topology has ({topology.n_sites}, {topology.n_links})"
            )
        self.topology = topology
        self.trace = trace

    def epochs(self, horizon: Optional[float] = None) -> Iterator[
        Tuple[float, float, ComponentTracker]
    ]:
        """Yield constant-partition epochs up to ``horizon``.

        ``horizon`` defaults to the trace duration; a longer horizon
        extends the final epoch (no further events occur).
        """
        end_time = self.trace.duration() if horizon is None else float(horizon)
        state = NetworkState(
            self.topology,
            self.trace.initial_site_up,
            self.trace.initial_link_up,
        )
        tracker = ComponentTracker(state)
        apply = dict(zip((kind.value for kind in EVENT_KINDS), appliers(state)))
        now = 0.0
        for time, kind_value, target in self.trace.events:
            if time > end_time:
                break
            if time > now:
                yield now, min(time, end_time), tracker
                now = time
            if kind_value not in apply:
                raise SimulationError(f"cannot replay event kind {kind_value!r}")
            apply[kind_value](target)
        if now < end_time:
            yield now, end_time, tracker
