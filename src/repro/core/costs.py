"""Storage cost accounting.

The paper distinguishes *temporary* storage (the lists ``L`` kept by L1
servers) from *permanent* storage (the single coded element kept by every
L2 server), both normalised by the object size and ignoring metadata
(Section II-d).  :class:`StorageCostTracker` receives add/remove events
from the servers and maintains the current and worst-case totals, plus an
event log that the latency analysis uses to locate the point ``Te(pi)``
after which a write's value is gone from every L1 list (Lemma V.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.consistency.history import slotted
from repro.core.tags import Tag


@slotted
@dataclass
class StorageEvent:
    """One change to an L1 temporary-storage list."""

    time: float
    server: str
    tag: Tag
    kind: str  # "add" or "remove"
    size: float


class StorageCostTracker:
    """Tracks normalised L1 (temporary) and L2 (permanent) storage cost."""

    def __init__(self, object_id: str = "object-0") -> None:
        self.object_id = object_id
        self._l1_current: Dict[Tuple[str, Tag], float] = {}
        self._l2_current: Dict[str, float] = {}
        self.l1_peak = 0.0
        self.l2_peak = 0.0
        self.events: List[StorageEvent] = []

    # -- current totals ------------------------------------------------------

    @property
    def l1_cost(self) -> float:
        """Current temporary storage cost across all L1 servers."""
        return sum(self._l1_current.values())

    @property
    def l2_cost(self) -> float:
        """Current permanent storage cost across all L2 servers."""
        return sum(self._l2_current.values())

    # -- event sinks (called by the servers) -------------------------------------

    def value_added(self, time: float, server: str, tag: Tag, size: float) -> None:
        """An L1 server stored a value of normalised ``size`` under ``tag``."""
        self._l1_current[(server, tag)] = size
        self.l1_peak = max(self.l1_peak, self.l1_cost)
        self.events.append(StorageEvent(time, server, tag, "add", size))

    def value_removed(self, time: float, server: str, tag: Tag) -> None:
        """An L1 server garbage-collected the value stored under ``tag``."""
        size = self._l1_current.pop((server, tag), 0.0)
        if size:
            self.events.append(StorageEvent(time, server, tag, "remove", size))

    def l2_element_stored(self, server: str, size: float) -> None:
        """An L2 server now stores a coded element of normalised ``size``.

        L2 servers hold exactly one element at a time, so this overwrites
        the server's previous contribution.
        """
        self._l2_current[server] = size
        self.l2_peak = max(self.l2_peak, self.l2_cost)

    # -- post-hoc analysis ----------------------------------------------------------

    def temporary_clear_time(self, tag: Tag) -> Optional[float]:
        """The earliest time after which no L1 list holds a value with tag <= ``tag``.

        This is the point ``Te(pi)`` of Lemma V.1 for a write with the given
        tag, computed from the event log.  Returns ``None`` if some such
        value is still stored at the end of the recorded execution.
        """
        live: Dict[Tuple[str, Tag], float] = {}
        last_removal = 0.0
        for event in self.events:
            if event.tag > tag:
                continue
            key = (event.server, event.tag)
            if event.kind == "add":
                live[key] = event.time
            else:
                live.pop(key, None)
                last_removal = max(last_removal, event.time)
        if live:
            return None
        return last_removal


__all__ = ["StorageCostTracker", "StorageEvent"]
