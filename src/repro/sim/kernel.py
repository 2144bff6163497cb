"""The global-clock simulation kernel.

A sharded cluster is many :class:`~repro.core.system.LDSSystem`s -- one per
key and migration epoch -- on **one** event queue: the
:class:`GlobalScheduler` owns a :class:`~repro.net.simulator.Simulator`
(:attr:`GlobalScheduler.simulator`) and the router hands it to every shard
through ``LDSSystem(simulator=...)``, exactly as
:class:`~repro.core.multi_object.MultiObjectSystem` runs a fleet.  Scenario
actions, workload arrivals, repair slots, replication and migration are
events on that same queue, so the cluster has one clock, events from
different shards interleave exactly as their timestamps dictate, and ties
run in the order they were scheduled -- the whole event order is a pure
function of the root seed.

Around that queue the kernel keeps:

* a rolling CRC *fingerprint* over ``repr(time)`` of every executed event,
  an O(1)-memory signature of the entire event order for determinism
  tests, and the event count in :attr:`GlobalScheduler.stats`;
* a second queue for observation-only probes
  (:meth:`GlobalScheduler.schedule_probe`): a probe runs at its own
  instant but never advances the clock, never counts as an event, never
  feeds the fingerprint, and loses ties to foreground events, so a sampled
  run is byte-identical to an unsampled one.  The cluster sampler, the
  live session auditor (:mod:`repro.obs.live_audit`) and the availability
  monitor (:mod:`repro.obs.availability`) are probe families;
* an optional runtime sanitizer (:meth:`GlobalScheduler.enable_sanitizer`,
  see :mod:`repro.sim.sanitizer`) checking clock monotonicity, scheduling
  into the past, probe purity and pending-map leaks; off by default, where
  its per-event cost is one ``is None`` check.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Tuple

from repro.net.simulator import EventHandle, Simulator

#: Name of the one foreground event queue.
FOREGROUND_SOURCE = "foreground"

#: Name of the observation-only probe queue (never fingerprinted).
TELEMETRY_SOURCE = "telemetry"


@dataclass
class KernelStats:
    """Counters of the executed foreground events."""

    events_total: int = 0

    @property
    def switch_rate(self) -> float:
        """Always 0.0: one queue never switches between sources.  Kept only
        because ``lds_bench`` reports it; ROADMAP item 1 (ii) retires it."""
        return 0.0


class GlobalScheduler:
    """The one foreground event queue, its fingerprint, stats and probes."""

    def __init__(self) -> None:
        #: The queue every shard, arrival and background activity runs on.
        self.simulator = Simulator()
        #: Observation-only probes; created on the first schedule_probe.
        self._probes: Optional[Simulator] = None
        self.stats = KernelStats()
        self._fingerprint = 0
        #: Runtime sanitizer (:class:`repro.sim.sanitizer.KernelSanitizer`)
        #: or None; checked with a single ``is None`` per event when off.
        self._sanitizer = None

    @property
    def now(self) -> float:
        """The current global virtual time (monotonically non-decreasing)."""
        return self.simulator.now

    @property
    def events_processed(self) -> int:
        return self.stats.events_total

    def sources(self) -> list:
        """The queues by name: the foreground one, plus the probe queue once
        a probe exists.  Kept only because ``lds_bench`` counts them;
        ROADMAP item 1 (ii) retires it."""
        queues = [SimpleNamespace(name=FOREGROUND_SOURCE,
                                  simulator=self.simulator)]
        if self._probes is not None:
            queues.append(SimpleNamespace(name=TELEMETRY_SOURCE,
                                          simulator=self._probes))
        return queues

    # -- scheduling --------------------------------------------------------------

    def schedule_at(self, time: float, callback) -> EventHandle:
        """Schedule a foreground event at a global time (not in the past)."""
        return self.simulator.schedule_at(time, callback)

    def schedule(self, delay: float, callback) -> EventHandle:
        """Schedule a foreground event ``delay`` global time units from now."""
        return self.simulator.schedule(delay, callback)

    def schedule_probe(self, time: float, callback) -> EventHandle:
        """Schedule an observation-only probe at a global time.

        Probes run in time order with the foreground -- so a sampler sees
        cluster state exactly as of its scheduled instant -- but lose ties
        to foreground events, never advance the global clock, and are
        excluded from :attr:`stats` and the fingerprint.

        Probe callbacks must be pure observation (read state, write
        telemetry sinks); scheduling foreground work from one would break
        the telemetry-on/off byte-identity the test suite enforces.
        """
        if time < self.now:
            raise ValueError("cannot schedule a probe in the global past")
        if self._probes is None:
            self._probes = Simulator(start=self.now)
        # A probe runs at its instant without moving the global clock, so
        # the probe queue's own clock may be ahead of it: a probe re-armed
        # from the global clock (two families with different intervals)
        # runs at the probe queue's clock instead of in its past.
        return self._probes.schedule_at(max(time, self._probes.now), callback)

    def pending_work(self) -> bool:
        """True while a foreground event is pending.

        This is what a self-re-arming probe checks before scheduling its
        next tick; re-arming unconditionally would keep an otherwise
        drained simulation pumping forever.
        """
        return self.simulator.peek_time() is not None

    # -- runtime sanitizer ---------------------------------------------------------

    def enable_sanitizer(self, strict: bool = True):
        """Turn on runtime invariant checking; returns the sanitizer.

        Idempotent (``strict`` only applies on first call).  The
        sanitizer guards clock monotonicity, scheduling into the past,
        probe purity and end-of-run pending-map leaks (see
        :mod:`repro.sim.sanitizer`).  It never feeds the fingerprint,
        the clock or the stats, so a sanitized run stays byte-identical
        to an unsanitized one.
        """
        if self._sanitizer is None:
            from repro.sim.sanitizer import KernelSanitizer

            self._sanitizer = KernelSanitizer(self, strict=strict)
        return self._sanitizer

    @property
    def sanitizer(self):
        """The active :class:`KernelSanitizer`, or None when off."""
        return self._sanitizer

    # -- the event pump -------------------------------------------------------------

    def peek(self) -> Optional[Tuple[float, str]]:
        """Time and queue name of the next event, or None when both idle."""
        head = self.simulator.peek_time()
        if self._probes is not None:
            probe = self._probes.peek_time()
            if probe is not None and (head is None or probe < head):
                return probe, TELEMETRY_SOURCE
        return None if head is None else (head, FOREGROUND_SOURCE)

    def step(self) -> bool:
        """Execute the next event -- a probe only when it is strictly
        earlier than the next foreground event; False when both idle."""
        simulator = self.simulator
        head = simulator.peek_time()
        probes = self._probes
        if probes is not None:
            probe = probes.peek_time()
            if probe is not None and (head is None or probe < head):
                self._run_probe()
                return True
        if head is None:
            return False
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.before_event(head)
        simulator.step()
        if sanitizer is not None:
            sanitizer.after_event(head)
        self.stats.events_total += 1
        self._fingerprint = zlib.crc32(repr(head).encode(), self._fingerprint)
        return True

    def _run_probe(self) -> None:
        # The sanitizer's write barrier verifies the probe left the
        # foreground exactly as a telemetry-free run would have it.
        sanitizer = self._sanitizer
        if sanitizer is not None:
            before = sanitizer.before_probe()
        self._probes.step()
        if sanitizer is not None:
            sanitizer.after_probe(before)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Pump events, bounded by global time and/or event count.

        The clock never rewinds: an ``until`` already in the past leaves it
        untouched (matching :meth:`Simulator.run`).
        """
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                return
            due = self.peek()
            if due is None or (until is not None and due[0] > until):
                break
            self.step()
            executed += 1
        if until is not None:
            # Nothing is due by ``until``: this only moves the clock there.
            self.simulator.run(until=until)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Pump until both queues are drained; guards against runaways.

        With the sanitizer enabled, draining to idle also runs its
        pending-map leak check -- the one invariant that is only
        meaningful once no event could still perform the cleanup.
        """
        executed = 0
        while self.step():
            executed += 1
            if executed > max_events:
                raise RuntimeError(
                    "global simulation exceeded the maximum event budget"
                )
        if self._sanitizer is not None:
            self._sanitizer.check_leaks()

    @property
    def fingerprint(self) -> int:
        """CRC32 over ``repr(time)`` of every executed foreground event.

        Two runs with the same seed must produce the same fingerprint; this
        is the determinism regression signal.
        """
        return self._fingerprint


__all__ = ["GlobalScheduler", "KernelStats", "FOREGROUND_SOURCE",
           "TELEMETRY_SOURCE"]
