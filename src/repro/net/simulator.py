"""The event heap and the virtual clock.

:class:`Simulator` keeps a virtual clock and a priority queue of pending
events, so executions are fully deterministic given the latency model's
random seed; the pump in :mod:`repro.net.kernel` is the one loop that
runs them, one :meth:`Simulator.step` per event.  An event is a list ordered by time, then a unique sequence
number (the callback is never compared): ``[time, sequence, callback]``
for a scheduled callback, or ``[time, sequence, deliver, sender,
destination, message]`` for a message delivery, which
:meth:`repro.net.network.Network.send` queues as data, with no closure.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, List, Optional


class Simulator:
    """A single-threaded discrete-event simulator with a virtual clock.

    The clock starts at ``start``: the global kernel's probe queue, created
    mid-run, is born at the global instant.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._queue: List[list] = []
        self._counter = itertools.count()
        self._now = start
        #: Invoked with the absolute time of *every* scheduling attempt,
        #: before validation (see :meth:`set_schedule_guard`).
        self._schedule_guard: Optional[Callable[[float], None]] = None

    def set_schedule_guard(self, guard: Optional[Callable[[float], None]]) -> None:
        """Register the one callback invoked on every scheduling attempt,
        deliveries included, with the absolute time *before* the past-check
        runs, so the kernel's sanitizer (:mod:`repro.net.sanitizer`) can
        record it and raise a structured error.  It must not schedule."""
        self._schedule_guard = guard

    @property
    def now(self) -> float:
        """The current virtual time."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("cannot schedule an event in the past")
        self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if self._schedule_guard is not None:
            self._schedule_guard(time)
        # Written so that a NaN time, which compares false both ways, fails.
        if not time >= self._now:
            raise ValueError("cannot schedule an event in the past")
        heappush(self._queue, [time, next(self._counter), callback])

    def reserve(self, count: int) -> int:
        """Take the next ``count`` sequence numbers; returns the first."""
        first = next(self._counter)
        self._counter = itertools.count(first + count)
        return first

    def schedule_reserved(self, time: float, sequence: int,
                          callback: Callable[[], None]) -> None:
        """:meth:`schedule_at` under ``sequence``, a number :meth:`reserve` took."""
        counter, self._counter = self._counter, iter((sequence,))
        try:
            self.schedule_at(time, callback)
        finally:
            self._counter = counter

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or None when idle."""
        queue = self._queue
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Run the next pending event, of either form; False when idle."""
        queue = self._queue
        if not queue:
            return False
        event = heappop(queue)
        self._now = event[0]
        if len(event) == 3:
            event[2]()
        else:
            event[2](event[3], event[4], event[5])
        return True


__all__ = ["Simulator"]
