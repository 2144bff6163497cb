"""Crash-failure injection.

The LDS algorithm tolerates ``f1 < n1 / 2`` crash failures among the L1
servers and ``f2 < n2 / 3`` among the L2 servers, plus any number of
client crashes.  The helpers here schedule crashes into a simulation so
that the liveness and atomicity properties can be exercised under the
worst allowed failure loads, at adversarially chosen or random times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.net.network import Network


@dataclass
class CrashSchedule:
    """A static plan mapping process ids to crash times."""

    crash_times: Dict[str, float] = field(default_factory=dict)

    def add(self, pid: str, time: float) -> "CrashSchedule":
        """Add (or overwrite) a crash entry; returns self for chaining."""
        if time < 0:
            raise ValueError("crash time must be non-negative")
        self.crash_times[pid] = time
        return self

    def merge(self, other: "CrashSchedule") -> "CrashSchedule":
        """Return a new schedule combining both (other wins on conflicts)."""
        merged = dict(self.crash_times)
        merged.update(other.crash_times)
        return CrashSchedule(crash_times=merged)

    def apply(self, network: Network) -> None:
        """Schedule every crash onto the network's simulator."""
        for pid, time in self.crash_times.items():
            if pid not in network.processes:
                raise ValueError(f"cannot schedule crash of unknown process {pid!r}")
            network.simulator.schedule_at(time, lambda p=pid: network.crash(p))

    def __len__(self) -> int:
        return len(self.crash_times)


class FailureInjector:
    """Generates crash schedules respecting per-layer failure budgets."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = random.Random(seed)

    def random_schedule(self, candidates: Sequence[str], max_failures: int,
                        time_range: tuple[float, float],
                        failures: Optional[int] = None) -> CrashSchedule:
        """Crash up to ``max_failures`` random processes at random times.

        Args:
            candidates: pids eligible to crash.
            max_failures: the failure budget (e.g. f1 or f2).
            time_range: (earliest, latest) crash time.
            failures: exact number of crashes; defaults to ``max_failures``.
        """
        if failures is None:
            failures = max_failures
        if failures > max_failures:
            raise ValueError("cannot schedule more failures than the budget allows")
        if failures > len(candidates):
            raise ValueError("not enough candidate processes to crash")
        low, high = time_range
        if low < 0 or high < low:
            raise ValueError("invalid time range")
        chosen = self._rng.sample(list(candidates), failures)
        schedule = CrashSchedule()
        for pid in chosen:
            schedule.add(pid, self._rng.uniform(low, high))
        return schedule


__all__ = ["CrashSchedule", "FailureInjector"]
