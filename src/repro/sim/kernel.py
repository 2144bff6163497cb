"""The global-clock simulation kernel.

Each :class:`~repro.core.system.LDSSystem` owns a private
:class:`~repro.net.simulator.Simulator`, so a sharded cluster is a federation
of independent event queues.  Running them one after another (a per-shard
``run_until_idle`` loop) destroys every cross-shard timing phenomenon:
background repair slots never compete with foreground load, migrations never
overlap writes, and correlated failures collapse into sequential ones.

The :class:`GlobalScheduler` fixes that by multiplexing any number of
per-shard simulators -- plus its own kernel event queue for scenario actions
and workload arrivals -- onto **one monotonic global clock**:

* every registered simulator becomes a :class:`SimulatorSource`.  There is
  one time domain: a simulator is born on the global clock
  (``Simulator(start=kernel.now)`` for a shard created mid-run), so its
  timestamps *are* global times and nothing is translated.  What a source
  keeps of its own is a queue and a clock reading: the reading *lags* the
  kernel's while the source is idle (a head it schedules before *now* is
  clamped to *now*) and runs *ahead* while its owner drains it inline;
* each :meth:`step` picks the source whose next pending event has the
  smallest time and executes exactly that one event, so events from
  different shards interleave exactly as their timestamps dictate;
* ties are broken by source registration order, and each simulator's own
  queue is FIFO at equal times, so the merged order is a pure function of
  the event timestamps -- deterministic under a fixed seed.

The kernel also maintains a rolling CRC *fingerprint* of the executed
``(source, time)`` sequence, giving determinism tests an O(1)-memory
signature of the entire global event order, and (optionally) a full trace.

Two observability hooks ride on the pump (see :mod:`repro.obs`), both
designed to leave that fingerprint untouched:

* :meth:`GlobalScheduler.schedule_probe` places observation-only events
  on a dedicated ``telemetry`` source that executes at its scheduled
  instant but bypasses the global clock, the stats, the fingerprint and
  the trace -- so a sampled run is byte-identical to an unsampled one.
  The cluster sampler, the live session auditor
  (:mod:`repro.obs.live_audit`) and the availability monitor
  (:mod:`repro.obs.availability`) are all probe families on this
  source;
* :meth:`GlobalScheduler.enable_sanitizer` turns on runtime invariant
  checking (clock monotonicity, no scheduling into a source's own
  past, probe purity, pending-map leaks -- see
  :mod:`repro.sim.sanitizer`); off by default, the per-event cost when
  off is a single ``is None`` check, and a sanitized run keeps the same
  fingerprint.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from typing import Dict, List, Optional, Tuple

from repro.net.simulator import EventHandle, Simulator

#: Name of the kernel's own event queue (scenario actions, arrivals).
KERNEL_SOURCE = "kernel"

#: Name of the observation-only probe queue (never fingerprinted).
TELEMETRY_SOURCE = "telemetry"


class SimulatorSource:
    """One simulator's event queue as a named source of the merged pump."""

    def __init__(self, name: str, simulator: Simulator) -> None:
        self.name = name
        self.simulator = simulator
        self.events_executed = 0
        #: Registration order; the kernel breaks global-time ties by it.
        self.order = 0
        #: Version of the one live kernel heap entry for this source's head.
        self.head_version = 0


@dataclass
class KernelStats:
    """Interleaving statistics of the merged execution."""

    events_total: int = 0
    #: Events executed per source name (retains unregistered sources).
    events_by_source: Dict[str, int] = field(default_factory=dict)
    #: Number of consecutive event pairs drawn from *different* sources --
    #: the direct measure of cross-shard interleaving (0 means the merged
    #: execution degenerated into per-shard blocks).
    context_switches: int = 0
    _last_source: Optional[str] = None

    @property
    def switch_rate(self) -> float:
        """Fraction of event transitions that crossed source boundaries."""
        if self.events_total <= 1:
            return 0.0
        return self.context_switches / (self.events_total - 1)

    def busiest_sources(self, limit: int = 5) -> List[Tuple[str, int]]:
        ranked = sorted(self.events_by_source.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:limit]


class GlobalScheduler:
    """Merges many simulators into one deterministic global event pump."""

    def __init__(self, record_trace: bool = False) -> None:
        self._sources: Dict[str, SimulatorSource] = {}
        self._now = 0.0
        #: Lazy min-heap over source head times: (global_time, registration
        #: order, unique entry version, source).  An entry is valid only
        #: while its version is the source's ``head_version`` and its time
        #: matches the source's current head; anything else is discarded
        #: (and refreshed) when it surfaces, so stale entries are tolerated
        #: instead of removed eagerly.  Sources push fresh entries through
        #: their simulator's head listener whenever scheduling moves a head
        #: earlier, which keeps the heap sound without rescanning every
        #: source per event: each step costs O(log S) instead of O(S).
        self._heap: List[tuple] = []
        self._versions = itertools.count(1)
        self._orders = itertools.count()
        self.stats = KernelStats()
        self.record_trace = record_trace
        #: Full (global_time, source_name) trace when ``record_trace`` is on.
        self.trace: List[Tuple[float, str]] = []
        self._fingerprint = 0
        #: Lazily created on the first :meth:`schedule_probe`.
        self._telemetry_source: Optional[SimulatorSource] = None
        #: Runtime sanitizer (:class:`repro.sim.sanitizer.KernelSanitizer`)
        #: or None; checked with a single ``is None`` per event when off.
        self._sanitizer = None
        # The kernel's own queue carries scenario actions and workload
        # arrivals; registering it first makes kernel events win every tie
        # against shard events at the same global time, so an arrival at t
        # is injected before the shards advance past t.
        self._kernel_sim = Simulator()
        self.register_simulator(self._kernel_sim, name=KERNEL_SOURCE)

    # -- source registry --------------------------------------------------------

    @property
    def now(self) -> float:
        """The current global virtual time (monotonically non-decreasing)."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self.stats.events_total

    def register_simulator(self, simulator: Simulator,
                           name: str) -> SimulatorSource:
        """Adopt a simulator as an event source of the merged pump.

        Its times are taken as global times, so a simulator joining
        mid-run is created with ``Simulator(start=kernel.now)`` (or the
        later instant its owner's timeline resumes at).
        """
        if name in self._sources:
            raise ValueError(f"duplicate event source {name!r}")
        source = SimulatorSource(name=name, simulator=simulator)
        source.order = next(self._orders)
        self._sources[name] = source
        simulator.set_head_listener(lambda: self._index_head(source))
        self._index_head(source)
        if self._sanitizer is not None:
            self._sanitizer.attach_source(source)
        return source

    def unregister(self, name: str) -> None:
        """Drop a source (e.g. a drained pre-migration shard)."""
        source = self._sources.pop(name)
        source.simulator.set_head_listener(None)
        if self._sanitizer is not None:
            self._sanitizer.detach_source(source)
        source.head_version = 0

    def source(self, name: str) -> SimulatorSource:
        return self._sources[name]

    def sources(self) -> List[SimulatorSource]:
        return list(self._sources.values())

    # -- kernel events -----------------------------------------------------------

    def schedule_at(self, time: float, callback) -> EventHandle:
        """Schedule a kernel event (scenario action, arrival) at a global time."""
        if time < self._now:
            raise ValueError("cannot schedule a kernel event in the global past")
        return self._kernel_sim.schedule_at(time, callback)

    def schedule(self, delay: float, callback) -> EventHandle:
        """Schedule a kernel event ``delay`` global time units from now."""
        if delay < 0:
            raise ValueError("cannot schedule a kernel event in the global past")
        return self.schedule_at(self._now + delay, callback)

    # -- telemetry probes ----------------------------------------------------------

    def schedule_probe(self, time: float, callback) -> EventHandle:
        """Schedule an observation-only probe at a global time.

        Probes execute on the merged pump -- so a sampler sees cluster
        state exactly as of its scheduled instant -- but are invisible to
        the determinism surface: they never advance the global clock, and
        they are excluded from :attr:`stats`, the fingerprint and the
        recorded trace.  Not advancing the clock matters beyond cosmetics:
        a lagging source's clamped head executes *at* the global clock, so
        a probe that moved the clock would change real event times.

        Probe callbacks must be pure observation (read state, write
        telemetry sinks); scheduling foreground work from one would break
        the telemetry-on/off byte-identity the test suite enforces.
        """
        if time < self._now:
            raise ValueError("cannot schedule a probe in the global past")
        if self._telemetry_source is None:
            self._telemetry_source = self.register_simulator(
                Simulator(start=self._now), name=TELEMETRY_SOURCE
            )
        simulator = self._telemetry_source.simulator
        # The telemetry source's clock may legitimately be ahead of the
        # global clock: final drain ticks run beyond the last foreground
        # event without advancing ``now``.  A probe re-arming from the
        # global clock (e.g. two probe families with different intervals)
        # must not land in the source's own past.
        effective = max(time, simulator.now)
        if self._sanitizer is not None and effective > time:
            self._sanitizer.note_clamp(
                "probe", TELEMETRY_SOURCE, requested=time, effective=effective)
        return simulator.schedule_at(effective, callback)

    def pending_work(self) -> bool:
        """True while any non-telemetry source has a pending event.

        This is what a self-re-arming probe checks before scheduling its
        next tick; re-arming unconditionally would keep an otherwise
        drained simulation pumping forever.
        """
        return any(
            source.simulator.peek_time() is not None
            for name, source in self._sources.items()
            if name != TELEMETRY_SOURCE
        )

    # -- runtime sanitizer ---------------------------------------------------------

    def enable_sanitizer(self, strict: bool = True):
        """Turn on runtime invariant checking; returns the sanitizer.

        Idempotent (``strict`` only applies on first call).  The
        sanitizer guards clock monotonicity, scheduling into a source's
        own past, probe purity and end-of-run pending-map leaks (see
        :mod:`repro.sim.sanitizer`).  It never feeds the fingerprint,
        the clock or the stats, so a sanitized run stays byte-identical
        to an unsanitized one.
        """
        if self._sanitizer is None:
            from repro.sim.sanitizer import KernelSanitizer

            self._sanitizer = KernelSanitizer(self, strict=strict)
            for source in self._sources.values():
                self._sanitizer.attach_source(source)
        return self._sanitizer

    @property
    def sanitizer(self):
        """The active :class:`KernelSanitizer`, or None when off."""
        return self._sanitizer

    # -- the event pump -------------------------------------------------------------

    def _index_head(self, source: SimulatorSource) -> None:
        """Push a fresh heap entry for a source's current head (if any)."""
        head = source.simulator.peek_time()
        if head is None:
            source.head_version = 0
            return
        version = source.head_version = next(self._versions)
        heappush(self._heap, (head, source.order, version, source))

    def _select(self) -> Optional[tuple]:
        """The heap entry of the source that runs next (None when all idle).

        The top entry is validated where it sits; only entries that turn
        out stale are popped (and, when the head merely moved, refreshed).
        A source whose head event lies before the global clock (a lagging
        shard scheduled at its own "now") is clamped to *now* -- the
        global clock never moves backwards.  Ties -- including everything
        clamped to *now* -- go to the earliest-registered source, exactly
        as the pre-heap linear scan resolved them.
        """
        heap = self._heap
        clamped: List[tuple] = []
        while heap:
            entry = heap[0]
            time, _order, version, source = entry
            if version != source.head_version:
                heappop(heap)
                continue
            if source.simulator.peek_time() != time:
                # The head moved without a listener notification (an event
                # at the front was cancelled): refresh and keep looking.
                heappop(heap)
                self._index_head(source)
            elif time > self._now:
                break  # the (time, registration order) minimum after *now*
            else:
                clamped.append(heappop(heap))
        else:
            entry = None
        if not clamped:
            return entry
        # Among everything effectively at *now* the first-registered source
        # wins, regardless of how far behind its raw head time is.
        for due in clamped:
            heappush(heap, due)
        return min(clamped, key=lambda due: due[1])

    def peek(self) -> Optional[Tuple[float, str]]:
        """Global time and source of the next event, or None when all idle."""
        entry = self._select()
        return None if entry is None else (max(entry[0], self._now), entry[3].name)

    def step(self) -> bool:
        """Execute the globally earliest pending event; False when idle."""
        entry = self._select()
        if entry is None:
            return False
        self._execute(entry)
        return True

    def _execute(self, entry: tuple) -> None:
        time, _order, version, source = entry
        name = source.name
        sanitizer = self._sanitizer
        simulator = source.simulator
        if name == TELEMETRY_SOURCE:
            # Observation-only probe: run it (``_select`` refreshes its stale
            # entry) and leave the clock / stats / fingerprint / trace
            # exactly as a telemetry-free run would have them.  The
            # sanitizer's write barrier verifies that "exactly" at runtime.
            if sanitizer is not None:
                probe_snapshot = sanitizer.before_probe()
            simulator.step()
            source.events_executed += 1
            if sanitizer is not None:
                sanitizer.after_probe(probe_snapshot)
            return
        if time < self._now:
            time = self._now
        if sanitizer is not None:
            sanitizer.before_event(source, time)
        self._now = time
        simulator.step()
        source.events_executed += 1
        if sanitizer is not None:
            sanitizer.after_event(source)
        # Re-index the executed source (head listeners did so for any other
        # source the event scheduled onto): while ``entry`` is still live
        # and the top, the successor takes its place with one sift.  It is
        # not when the event moved this source's head earlier or dropped the
        # source (a newer version is live), or put a lagging or, at this
        # instant, earlier-registered source ahead.  Then, as when the
        # source went idle, ``entry`` stays behind: its time is no later
        # than the head it stands for, so ``_select`` meets it in time and
        # discards or refreshes it.
        if source.head_version == version and self._heap[0] is entry:
            head = simulator.peek_time()
            if head is not None:
                source.head_version = version = next(self._versions)
                heapreplace(self._heap, (head, source.order, version, source))
        stats = self.stats
        stats.events_total += 1
        stats.events_by_source[name] = stats.events_by_source.get(name, 0) + 1
        if stats._last_source != name:
            if stats._last_source is not None:
                stats.context_switches += 1
            stats._last_source = name
        self._fingerprint = zlib.crc32(
            f"{name}@{time!r}".encode(), self._fingerprint
        )
        if self.record_trace:
            self.trace.append((time, name))

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Pump merged events, bounded by global time and/or event count.

        The clock never rewinds: an ``until`` already in the past leaves it
        untouched (matching :meth:`Simulator.run`).
        """
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                return
            entry = self._select()
            if entry is None or (
                    until is not None and max(entry[0], self._now) > until):
                break
            self._execute(entry)
            executed += 1
        if until is not None and until > self._now:
            self._now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Pump until every source is drained; guards against runaways.

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
        """CRC32 over the executed (source, time) sequence.

        Two runs with the same seed must produce the same fingerprint; this
        is the determinism regression signal.
        """
        return self._fingerprint


__all__ = ["GlobalScheduler", "KernelStats", "SimulatorSource",
           "KERNEL_SOURCE", "TELEMETRY_SOURCE"]
