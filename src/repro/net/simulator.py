"""Discrete-event simulation core.

:class:`Simulator` keeps a virtual clock and a priority queue of pending
events.  All protocol activity -- message deliveries, client invocations,
crash injections -- is expressed as callbacks scheduled on this queue, so
executions are fully deterministic given the latency model's random seed.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, List, Optional

# A queued event is a plain ``[time, sequence, callback]`` list, so the
# heap orders events with C-level list comparison.  Sequence numbers are
# unique: the callback is never compared.  Cancelling clears the callback.


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_event",)

    def __init__(self, event: list) -> None:
        self._event = event

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already ran."""
        self._event[2] = None

    @property
    def cancelled(self) -> bool:
        return self._event[2] is None

    @property
    def time(self) -> float:
        return self._event[0]


class Simulator:
    """A single-threaded discrete-event simulator with a virtual clock.

    The clock starts at ``start``: a simulator created mid-run by the
    global kernel is born at the global instant, so its timestamps are
    global time from the first event.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._queue: List[list] = []
        self._counter = itertools.count()
        self._now = start
        self._events_processed = 0
        #: Invoked whenever a newly scheduled event becomes the queue head
        #: (see :meth:`set_head_listener`).
        self._head_listener: Optional[Callable[[], None]] = None
        #: Invoked with the absolute time of *every* scheduling attempt,
        #: before validation (see :meth:`set_schedule_guard`).
        self._schedule_guard: Optional[Callable[[float], None]] = None

    def set_head_listener(self, listener: Optional[Callable[[], None]]) -> None:
        """Register a callback fired when scheduling moves the head earlier.

        An external multiplexer (the global simulation kernel) tracks every
        simulator's next pending time in a heap; without a notification it
        would have to re-scan all sources after every event, because any
        event's callback may schedule onto *any* simulator.  The listener
        fires from :meth:`schedule_at` whenever the new event lands at the
        front of the queue, i.e. exactly when the externally visible head
        time can move earlier (cancellations can only move it later, which
        the multiplexer detects lazily).  Only one listener is supported --
        a simulator is ever owned by at most one kernel.
        """
        self._head_listener = listener

    def set_schedule_guard(self, guard: Optional[Callable[[float], None]]) -> None:
        """Register a callback invoked on every scheduling attempt.

        The guard receives the absolute virtual time *before* the
        past-check runs, so an external sanitizer (the kernel's runtime
        sanitizer in :mod:`repro.sim.sanitizer`) can attach source
        context and raise a structured error where this class would only
        raise a bare ``ValueError``.  Guards must not schedule events.
        Only one guard is supported -- a simulator is ever owned by at
        most one kernel.
        """
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
        if time < self._now:
            raise ValueError("cannot schedule an event in the past")
        event = [time, next(self._counter), callback]
        queue = self._queue
        heappush(queue, event)
        if queue[0] is event and self._head_listener is not None:
            self._head_listener()
        return EventHandle(event)

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or None when idle.

        Cancelled events at the head of the queue are discarded as a side
        effect, so the returned time is the one :meth:`step` would run at.
        This is what lets an external multiplexer (the global simulation
        kernel in :mod:`repro.sim.kernel`) merge many simulators onto one
        clock without executing anything.
        """
        queue = self._queue
        while queue:
            time, _sequence, callback = queue[0]
            if callback is not None:
                return time
            heappop(queue)
        return None

    def step(self) -> bool:
        """Run the next pending event.  Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _sequence, callback = heappop(queue)
            if callback is None:
                continue
            self._now = time
            self._events_processed += 1
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue is drained, ``until`` is reached, or
        ``max_events`` events have been executed in this call."""
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                return
            time = self.peek_time()
            if time is None:
                break
            if until is not None and time > until:
                self._now = until
                return
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
