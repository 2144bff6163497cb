"""Randomised differential: the kernel's lazy head heap against the spec.

The spec is the "linear scan" the kernel's docstrings name: every step
looks at *every* source's head, clamps heads that map before the global
clock to *now*, and runs the earliest -- first-registered on ties.
:class:`ReferencePump` is that scan, with the kernel's telemetry bypass;
:func:`drive` plays one seeded random script against either pump through
the API they share.  Seeds are fixed and nothing reads the host clock.
"""

from __future__ import annotations

import random
import zlib
from types import SimpleNamespace

import pytest

from repro.net.simulator import Simulator
from repro.sim.kernel import (KERNEL_SOURCE, TELEMETRY_SOURCE, GlobalScheduler,
                              KernelStats)


class ReferencePump:
    """Rescans every source per step; the subset of the kernel API in use."""

    def __init__(self) -> None:
        self._sources = {}
        self.now = 0.0
        self.trace = []
        self.stats = KernelStats()
        self.fingerprint = 0
        self.register_simulator(Simulator(), KERNEL_SOURCE)

    def register_simulator(self, simulator, name):
        source = SimpleNamespace(name=name, simulator=simulator)
        self._sources[name] = source  # dicts keep registration order
        return source

    def unregister(self, name):
        del self._sources[name]

    def sources(self):
        return list(self._sources.values())

    def schedule_probe(self, time, callback):
        source = self._sources.get(TELEMETRY_SOURCE) or self.register_simulator(
            Simulator(start=self.now), TELEMETRY_SOURCE)
        return source.simulator.schedule_at(
            max(time, source.simulator.now), callback)

    def step(self) -> bool:
        best = None
        for source in self._sources.values():
            head = source.simulator.peek_time()
            if head is None:
                continue
            time = max(head, self.now)
            if best is None or time < best[0]:  # strict: ties keep the first
                best = (time, source)
        if best is None:
            return False
        time, source = best
        if source.name == TELEMETRY_SOURCE:
            source.simulator.step()
            return True
        self.now = time
        source.simulator.step()
        stats, name = self.stats, source.name
        stats.events_total += 1
        stats.events_by_source[name] = stats.events_by_source.get(name, 0) + 1
        stats.context_switches += stats._last_source not in (None, name)
        stats._last_source = name
        self.fingerprint = zlib.crc32(f"{name}@{time!r}".encode(), self.fingerprint)
        self.trace.append((time, name))
        return True


def drive(pump, seed: int, max_events: int = 400):
    """Play the random script of ``seed``; returns everything observable."""
    rng = random.Random(seed)
    handles, probes, made = [], [], [0]

    def add_source():
        made[0] += 1
        # Born at *now*, behind it (a lagging clock, so heads clamp) or
        # ahead of it (an epoch resuming where an inline drain ended).
        shift = rng.choice([0.0, 0.0, 0.0, -3.0, -12.5, 4.0])
        simulator = Simulator(start=pump.now + shift)
        pump.register_simulator(simulator, f"s{made[0]}")
        for _ in range(rng.randrange(4)):
            plant(simulator, f"s{made[0]}")

    def plant(simulator, name):
        handles.append(simulator.schedule(
            rng.choice([0.0, 0.5, 1.0, 1.0, 2.25, 7.0]), lambda: act(name)))

    def targets():
        return [s for s in pump.sources() if s.name != TELEMETRY_SOURCE]

    def act(name):
        for _ in range(rng.randrange(1, 4)):
            move = rng.randrange(12)
            if move >= 10 or move < 4:        # onto any source, at >= now
                source = rng.choice(targets())
                plant(source.simulator, source.name)
            elif move == 4:                   # onto another source, at exactly now
                source = rng.choice(targets())
                handles.append(source.simulator.schedule_at(
                    max(pump.now, source.simulator.now),
                    lambda n=source.name: act(n)))
            elif move == 5 and handles:       # cancel (often a head)
                handles.pop(rng.randrange(len(handles))).cancel()
            elif move == 6 and made[0] < 6:   # a source joins mid-run
                add_source()
            elif move == 7:                   # an idle source leaves
                idle = [s.name for s in targets() if s.name not in (KERNEL_SOURCE, name)
                        and s.simulator.peek_time() is None]
                if idle:
                    pump.unregister(rng.choice(idle))
            elif move == 8 and name != KERNEL_SOURCE and len(targets()) > 2 \
                    and any(s.name == name for s in targets()):
                pump.unregister(name)         # the executing source leaves
            elif move == 9:                   # observation-only probe
                pump.schedule_probe(pump.now + rng.choice([0.0, 0.75, 3.0]),
                                    lambda: probes.append(pump.now))

    for _ in range(rng.randrange(1, 4)):
        add_source()
    plant(pump.sources()[0].simulator, KERNEL_SOURCE)
    executed = 0
    while executed < max_events and pump.step():
        executed += 1
    stats = pump.stats
    return (pump.trace, probes, pump.now, pump.fingerprint, stats.events_total,
            stats.events_by_source, stats.context_switches,
            sorted(s.name for s in pump.sources()))


@pytest.mark.parametrize("seed", range(60))
def test_heap_pump_replays_the_linear_scan(seed):
    expected = drive(ReferencePump(), seed)
    assert drive(GlobalScheduler(record_trace=True), seed) == expected


def test_the_scripts_reach_the_cases_they_are_meant_to():
    """Clamped heads, same-instant cross-source events, probes, departures."""
    clamped = same_instant = probes = left = 0
    for seed in range(60):
        pump = ReferencePump()
        trace, probe_log, *_rest, names = drive(pump, seed)
        times = [time for time, _ in trace]
        same_instant += sum(a == b for a, b in zip(times, times[1:]))
        probes += len(probe_log)
        left += any(name not in names for _, name in trace)
        clamped += any(s.simulator.now < pump.now - 1.0
                       for s in pump.sources() if s.simulator.events_processed)
    assert min(clamped, same_instant, probes, left) > 0
