"""Randomised differential: the kernel's two heaps against the spec.

The spec is a linear scan over every pending event: the earliest runs,
foreground before probe on a tie, each kind in scheduling order; a probe
runs at its own instant but never moves the clock, the stats or the
fingerprint, and a probe asked for before the probe queue's clock runs
at that clock.  :class:`ReferencePump` is that scan; :func:`drive` plays
one seeded random script against either pump through the API they share.
Seeds are fixed and nothing reads the host clock.
"""

from __future__ import annotations

import itertools
import random
import struct
import zlib

import pytest

from repro.sim.kernel import GlobalScheduler, KernelStats


class ReferencePump:
    """Rescans every pending event per step; the kernel API in use."""

    def __init__(self) -> None:
        self.now = 0.0
        self._probe_clock = 0.0
        #: [time, scheduling order, callback or None once cancelled, probe?]
        self._events = []
        self._orders = itertools.count()
        self.stats = KernelStats()
        self.fingerprint = 0
        #: Probes asked for before the probe queue's clock.
        self.late_probes = 0

    def _add(self, time, callback, probe):
        event = [time, next(self._orders), callback, probe]
        self._events.append(event)

        class Handle:
            @staticmethod
            def cancel():
                event[2] = None

        return Handle()

    def schedule_at(self, time, callback):
        if time < self.now:
            raise ValueError("past")
        return self._add(time, callback, False)

    def schedule_probe(self, time, callback):
        if time < self.now:
            raise ValueError("past")
        self.late_probes += time < self._probe_clock
        return self._add(max(time, self._probe_clock), callback, True)

    def step(self) -> bool:
        live = [event for event in self._events if event[2] is not None]
        if not live:
            return False
        event = min(live, key=lambda e: (e[0], e[3], e[1]))
        self._events.remove(event)
        time, _order, callback, probe = event
        if probe:
            self._probe_clock = time
            callback()
            return True
        self.now = time
        callback()
        self.stats.events_total += 1
        self.fingerprint = zlib.crc32(struct.pack("<d", time), self.fingerprint)
        return True

    def run(self, max_events: int) -> None:
        """At most ``max_events`` steps, probes included."""
        for _ in range(max_events):
            if not self.step():
                return


#: How :func:`drive` pumps, in turn: 0 is one ``step()``, n > 0 one
#: ``run(max_events=n)``.
PUMP_CHUNKS = (0, 1, 5, 0, 2, 40, 3)


def drive(pump, seed: int, max_events: int = 400):
    """Play the random script of ``seed``; returns everything observable.

    The script is pumped alternately through ``step()`` and through
    ``run(max_events=...)``; every step, probe or event, logs one entry.
    """
    rng = random.Random(seed)
    log, handles, labels = [], [], itertools.count()
    cancels = [0]

    def plant(at):
        label = next(labels)
        handles.append(pump.schedule_at(at, lambda: act(label)))

    def arm_probe():
        at = pump.now + rng.choice([0.0, 0.0, 0.75, 3.0])
        pump.schedule_probe(
            at, lambda label=next(labels), at=at: probe(label, at))

    def probe(label, at):
        log.append(("probe", label, pump.now, at))
        if rng.randrange(3) == 0:
            # Re-armed from the global clock, which the probe did not move:
            # possibly before the probe queue's own clock.
            arm_probe()

    def act(label):
        log.append(("event", label, pump.now, pump.now))
        for _ in range(rng.randrange(1, 4)):
            move = rng.randrange(9)
            if move < 4:                      # later foreground work
                plant(pump.now + rng.choice([0.5, 1.0, 1.0, 2.25, 7.0]))
            elif move == 4:                   # more work at exactly now
                plant(pump.now)
            elif move == 5 and handles:       # cancel (often a head)
                handles.pop(rng.randrange(len(handles))).cancel()
                cancels[0] += 1
            elif move >= 6:                   # observation-only probe
                arm_probe()

    for _ in range(rng.randrange(1, 4)):
        plant(rng.choice([0.0, 1.0, 2.25]))
    executed = 0
    for chunk in itertools.cycle(PUMP_CHUNKS):
        if executed >= max_events:
            break
        before = len(log)
        if chunk == 0:
            pump.step()
        else:
            pump.run(max_events=min(chunk, max_events - executed))
        if len(log) == before:
            break
        executed += len(log) - before
    return (log, pump.now, pump.fingerprint, pump.stats.events_total,
            cancels[0])


@pytest.mark.parametrize("seed", range(60))
def test_heap_pump_replays_the_linear_scan(seed):
    assert drive(GlobalScheduler(), seed) == drive(ReferencePump(), seed)


def test_the_scripts_reach_the_cases_they_are_meant_to():
    """Same-instant events, probes that lose a tie, probes asked for before
    the probe queue's clock, cancellations."""
    same_instant = tied_probes = late_probes = cancels = 0
    for seed in range(60):
        pump = ReferencePump()
        log, *_rest, cancelled = drive(pump, seed)
        cancels += cancelled
        late_probes += pump.late_probes
        for before, after in zip(log, log[1:]):
            same_instant += before[0] == after[0] == "event" \
                and before[2] == after[2]
            tied_probes += before[0] == "event" and after[0] == "probe" \
                and before[2] == after[3]
    assert min(same_instant, tied_probes, late_probes, cancels) > 0
