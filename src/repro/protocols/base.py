"""Protocol interface shared by the simulator and the replication layer.

A replica control protocol answers one question: *may this access proceed
in the submitting site's current component?* The simulator asks it in
bulk — one boolean per site per operation kind — so the interface is
mask-based. Dynamic protocols additionally react to network changes via
:meth:`on_network_change`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

from repro.connectivity.dynamic import ComponentTracker
from repro.telemetry.recorder import NULL as _NULL_TELEMETRY

__all__ = ["ReplicaControlProtocol"]


class ReplicaControlProtocol(ABC):
    """Decides which sites may currently read or write the data item."""

    #: Human-readable protocol name for reports.
    name: str = "protocol"

    #: Telemetry recorder; the engine (or any harness) rebinds this via
    #: :meth:`bind_telemetry`. The class-level default is the no-op null
    #: recorder, so protocol instrumentation costs nothing un-bound.
    telemetry = _NULL_TELEMETRY

    def bind_telemetry(self, telemetry) -> None:
        """Attach a telemetry recorder for protocol-level metrics."""
        if telemetry is not None:
            self.telemetry = telemetry

    @abstractmethod
    def grant_masks(self, tracker: ComponentTracker) -> Tuple[np.ndarray, np.ndarray]:
        """Per-site grant decisions under the current network state.

        Returns ``(read_mask, write_mask)``: boolean arrays over sites
        where entry ``i`` says whether an access submitted at site ``i``
        would be granted. A down site must be ``False`` in both masks
        (the ACC metric counts submissions to down sites as denials).
        The returned arrays are never mutated afterwards: callers hold
        them across calls (the epoch ledger compares them by identity),
        and a protocol may return the same objects again only while
        their contents are unchanged.
        """

    def on_network_change(self, tracker: ComponentTracker) -> None:
        """Hook invoked after every site/link failure or recovery.

        Static protocols ignore it; the dynamic reassignment protocol uses
        it to propagate new quorum assignments to sites that just merged
        into a better-informed component.
        """

    def reset(self) -> None:
        """Restore any protocol state to its initial value (new batch)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
