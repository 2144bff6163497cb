"""Runtime sanitizer for the event pump.

The determinism rules scanned in tier-1 catch hazard *patterns*; this
module catches hazard *executions*.  :meth:`GlobalScheduler.enable_sanitizer
<repro.net.kernel.GlobalScheduler.enable_sanitizer>` attaches a
:class:`KernelSanitizer` to the pump, which then checks four invariants
that every determinism and noninterference guarantee in this repo
ultimately rests on:

``clock-regression``
    The global clock is monotonically non-decreasing.  A callback that
    rewinds it (or an event queued before *now*) corrupts every
    subsequent timestamp.

``past-schedule``
    No foreground event is scheduled before the global clock.  The
    underlying :class:`~repro.net.simulator.Simulator` raises a bare
    ``ValueError`` for this; the sanitizer's schedule guard sees the
    attempt first and reports it as a structured violation, and keeps a
    record even in non-strict mode.

``probe-mutation``
    Telemetry probes are pure observation.  Around every probe the
    sanitizer snapshots the foreground surface (global clock,
    fingerprint, the pump's event count, the queue's depth and head time)
    and verifies the probe left all of it untouched -- the per-probe twin
    of the telemetry-on/off byte-identity suites.

``pending-leak``
    Registered pending-invocation maps (see :meth:`watch_map`) must be
    empty once the simulation drains.  An entry left behind means an
    operation path forgot its cleanup -- the bug class where a stranded
    quorum kept its callback map entry forever.

In strict mode (the default) the first violation raises
:class:`SanitizerError`; in recording mode violations accumulate on
:attr:`KernelSanitizer.violations` for post-run assertions.  The
sanitizer never feeds the fingerprint, the clock or the stats, so a
sanitized run is byte-identical to an unsanitized one; the per-event
cost when off is a single ``is None`` check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import List, Sized, Tuple

from repro.net.kernel import FOREGROUND_SOURCE, TELEMETRY_SOURCE

#: Violation kinds (also the vocabulary of :class:`SanitizerViolation`).
CLOCK_REGRESSION = "clock-regression"
PAST_SCHEDULE = "past-schedule"
PROBE_MUTATION = "probe-mutation"
PENDING_LEAK = "pending-leak"


@dataclass(frozen=True)
class SanitizerViolation:
    """One detected invariant breach."""

    kind: str
    #: Queue name (or watch name for ``pending-leak``).
    source: str
    #: Global virtual time at detection.
    global_time: float
    detail: str

    def format(self) -> str:
        return (f"[{self.kind}] source={self.source} "
                f"t={self.global_time!r}: {self.detail}")


class SanitizerError(RuntimeError):
    """Raised in strict mode on the first violation."""

    def __init__(self, violation: SanitizerViolation) -> None:
        super().__init__(violation.format())
        self.violation = violation


class KernelSanitizer:
    """Checks kernel invariants at runtime; see the module docstring."""

    def __init__(self, kernel, strict: bool = True) -> None:
        self._kernel = kernel
        self.strict = strict
        self.violations: List[SanitizerViolation] = []
        self.events_checked = 0
        self.probes_checked = 0
        #: High-water mark of the global clock.
        self._mark = kernel.now
        self._watches: List[Tuple[str, Sized]] = []
        kernel.simulator.set_schedule_guard(self._on_schedule)

    @property
    def ok(self) -> bool:
        return not self.violations

    def _report(self, kind: str, source: str, detail: str) -> None:
        violation = SanitizerViolation(
            kind=kind, source=source,
            global_time=self._kernel.now, detail=detail)
        self.violations.append(violation)
        if self.strict:
            raise SanitizerError(violation)

    def _on_schedule(self, time: float) -> None:
        now = self._kernel.now
        if time < now:
            self._report(
                PAST_SCHEDULE, FOREGROUND_SOURCE,
                f"schedule_at({time!r}) is before the global clock {now!r}")

    # -- per-event monotonicity --------------------------------------------------

    def before_event(self, time: float) -> None:
        self.events_checked += 1
        if time < self._mark:
            self._report(
                CLOCK_REGRESSION, FOREGROUND_SOURCE,
                f"event at {time!r} would rewind the global clock from "
                f"{self._mark!r}")

    def after_event(self, time: float) -> None:
        now = self._kernel.now
        if now < time:
            self._report(
                CLOCK_REGRESSION, FOREGROUND_SOURCE,
                f"the clock moved backwards: {now!r} after an event at "
                f"{time!r} (a callback rewound the clock)")
        self._mark = max(self._mark, now)

    # -- probe write barrier -----------------------------------------------------

    def _foreground_snapshot(self) -> dict:
        kernel = self._kernel
        simulator = kernel.simulator
        return {"global clock": kernel.now, "fingerprint": kernel.fingerprint,
                "events_processed": kernel.events_processed,
                "pending_events": simulator.pending_events,
                "head": simulator.peek_time()}

    def before_probe(self) -> dict:
        self.probes_checked += 1
        return self._foreground_snapshot()

    def after_probe(self, before: dict) -> None:
        after = self._foreground_snapshot()
        for field_name, was in before.items():
            if after[field_name] != was:
                self._report(
                    PROBE_MUTATION, TELEMETRY_SOURCE,
                    f"probe mutated foreground state: {field_name} changed "
                    f"{was!r} -> {after[field_name]!r}")
                return

    # -- end-of-run leak detection -----------------------------------------------

    def watch_map(self, name: str, mapping: Sized) -> None:
        """Register a pending-invocation map that must drain to empty.

        The sanitizer holds the mapping by reference and checks
        ``len() == 0`` from :meth:`check_leaks` (which the kernel's
        ``run_until_idle`` invokes once both queues are drained).
        """
        self._watches.append((name, mapping))

    def check_leaks(self) -> List[SanitizerViolation]:
        """Report every watched map that still holds entries."""
        found: List[SanitizerViolation] = []
        for name, mapping in self._watches:
            count = len(mapping)
            if not count:
                continue
            sample = list(islice(iter(mapping), 4))
            before = len(self.violations)
            self._report(
                PENDING_LEAK, name,
                f"{count} entr{'y' if count == 1 else 'ies'} left pending "
                f"at idle (e.g. {sample!r}): an operation path skipped its "
                f"cleanup")
            found.extend(self.violations[before:])
        return found


__all__ = [
    "KernelSanitizer", "SanitizerError", "SanitizerViolation",
    "CLOCK_REGRESSION", "PAST_SCHEDULE", "PROBE_MUTATION", "PENDING_LEAK",
]
