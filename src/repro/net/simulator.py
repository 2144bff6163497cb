"""Discrete-event simulation core.

:class:`Simulator` keeps a virtual clock and a priority queue of pending
events, so executions are fully deterministic given the latency model's
random seed.  An event is a list ordered by time, then a unique sequence
number: ``[time, sequence, callback]`` for a scheduled callback (the list
is its own :class:`EventHandle`), or ``[time, sequence, deliver, sender,
destination, message]`` for a message delivery, which
:meth:`repro.net.network.Network.send` queues as data, with no closure.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Callable, List, Optional


class EventHandle(list):
    """A queued ``[time, sequence, callback]`` event, which is also the
    handle :meth:`Simulator.schedule` returns; allows cancellation.

    The heap orders events with C-level list comparison.  Sequence numbers
    are unique: the callback is never compared.  Cancelling clears the
    callback.
    """

    __slots__ = ()

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already ran."""
        self[2] = None

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    @property
    def time(self) -> float:
        return self[0]


class Simulator:
    """A single-threaded discrete-event simulator with a virtual clock.

    The clock starts at ``start``: the global kernel's probe queue, created
    mid-run, is born at the global instant.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._queue: List[list] = []
        self._counter = itertools.count()
        self._now = start
        self._events_processed = 0
        #: Invoked with the absolute time of *every* scheduling attempt,
        #: before validation (see :meth:`set_schedule_guard`).
        self._schedule_guard: Optional[Callable[[float], None]] = None

    def set_schedule_guard(self, guard: Optional[Callable[[float], None]]) -> None:
        """Register the one callback invoked on every scheduling attempt,
        deliveries included, with the absolute time *before* the past-check
        runs, so the kernel's sanitizer (:mod:`repro.sim.sanitizer`) can
        record it and raise a structured error.  It must not schedule."""
        self._schedule_guard = guard

    @property
    def now(self) -> float:
        """The current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("cannot schedule an event in the past")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if self._schedule_guard is not None:
            self._schedule_guard(time)
        # Written so that a NaN time, which compares false both ways, fails.
        if not time >= self._now:
            raise ValueError("cannot schedule an event in the past")
        event = EventHandle((time, next(self._counter), callback))
        heappush(self._queue, event)
        return event

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or None when idle.

        Cancelled events at the head of the queue are discarded as a side
        effect, so the returned time is the one :meth:`step` would run at.
        """
        queue = self._queue
        while queue:
            event = queue[0]
            if event[2] is not None:
                return event[0]
            heappop(queue)
        return None

    def step(self) -> bool:
        """Run the next pending event, of either form; False when idle."""
        queue = self._queue
        while queue:
            event = heappop(queue)
            callback = event[2]
            if callback is None:
                continue
            self._now = event[0]
            self._events_processed += 1
            if len(event) == 3:
                callback()
            else:
                callback(event[3], event[4], event[5])
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue is drained, ``until`` is reached, or
        ``max_events`` events have been executed in this call.

        The clock then stands at ``until`` -- or stays where it is when
        ``until`` is already in the past: it never rewinds.  A non-finite
        ``until`` raises ``ValueError``; None means no bound.
        """
        if until is not None and not math.isfinite(until):
            raise ValueError("the run bound must be finite")
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                return
            time = self.peek_time()
            if time is None or (until is not None and time > until):
                break
            self.step()
            executed += 1
        if until is not None and until > self._now:
            self._now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain; guards against runaway executions."""
        executed = 0
        while self.step():
            executed += 1
            if executed > max_events:
                raise RuntimeError("simulation exceeded the maximum event budget")


__all__ = ["Simulator", "EventHandle"]
