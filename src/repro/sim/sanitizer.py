"""Runtime sanitizer for the global simulation kernel.

The static pass in :mod:`repro.lint` catches hazard *patterns*; this
module catches hazard *executions*.  :meth:`GlobalScheduler.enable_sanitizer
<repro.sim.kernel.GlobalScheduler.enable_sanitizer>` attaches a
:class:`KernelSanitizer` to the pump, which then checks four invariants
that every determinism and noninterference guarantee in this repo
ultimately rests on:

``clock-regression``
    Every source's own clock and the global clock are monotonically
    non-decreasing.  A callback that rewinds a simulator's clock (or a
    kernel bug that executes an event before *now*) corrupts every
    subsequent timestamp.

``past-schedule``
    No foreground event is scheduled into its source's own past (a
    source's clock lags the global one while idle and runs ahead of it
    during an inline drain, so "past" is judged against that clock).  The
    underlying :class:`~repro.net.simulator.Simulator` raises a bare
    ``ValueError`` for this; the sanitizer's schedule guard sees the
    attempt first and reports it with source context, and keeps a
    record even in non-strict mode.  Sanctioned *clamps* -- the kernel's
    probe re-arm clamp and the router's shard clamp, which contain this
    bug class by design -- are recorded as :attr:`KernelSanitizer.clamps`
    diagnostics rather than violations, so a run can be audited for how
    often containment actually fired (the generalisation of the probe
    re-arm clamp fix).

``probe-mutation``
    Telemetry probes are pure observation.  Around every probe the
    sanitizer snapshots the foreground surface (global clock,
    fingerprint, event counts, and each non-telemetry source's own
    clock, queue depth and head time) and verifies the probe left all
    of it untouched -- the per-probe twin of the telemetry-on/off
    byte-identity suites.

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
from typing import Dict, List, Optional, Sized, Tuple

#: Violation kinds (also the vocabulary of :class:`SanitizerViolation`).
CLOCK_REGRESSION = "clock-regression"
PAST_SCHEDULE = "past-schedule"
PROBE_MUTATION = "probe-mutation"
PENDING_LEAK = "pending-leak"


@dataclass(frozen=True)
class SanitizerViolation:
    """One detected invariant breach."""

    kind: str
    #: Source name (or watch name for ``pending-leak``).
    source: str
    #: Global virtual time at detection.
    global_time: float
    detail: str

    def format(self) -> str:
        return (f"[{self.kind}] source={self.source} "
                f"t={self.global_time!r}: {self.detail}")


@dataclass(frozen=True)
class ClampEvent:
    """A sanctioned past-schedule containment that actually fired."""

    #: ``"probe"`` (kernel probe re-arm) or ``"shard"`` (router clamp).
    kind: str
    source: str
    #: Requested and effective times, both on the global timeline.
    requested: float
    effective: float
    global_time: float


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
        #: Sanctioned clamps observed (diagnostics, never violations).
        self.clamps: List[ClampEvent] = []
        self.events_checked = 0
        self.probes_checked = 0
        #: Per-source high-water mark of the source's own clock.
        self._local_marks: Dict[str, float] = {}
        self._watches: List[Tuple[str, Sized]] = []

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

    # -- source attachment -------------------------------------------------------

    def attach_source(self, source) -> None:
        """Start guarding a kernel source (idempotent per name)."""
        from repro.sim.kernel import TELEMETRY_SOURCE

        if source.name == TELEMETRY_SOURCE:
            # Probe scheduling goes through the kernel's re-arm clamp,
            # which already forbids the source's past; guarding it again
            # would only tax the observation path.
            return
        self._local_marks[source.name] = source.simulator.now
        source.simulator.set_schedule_guard(
            lambda time, s=source: self._on_schedule(s, time))

    def detach_source(self, source) -> None:
        source.simulator.set_schedule_guard(None)
        self._local_marks.pop(source.name, None)

    def _on_schedule(self, source, time: float) -> None:
        if time < source.simulator.now:
            self._report(
                PAST_SCHEDULE, source.name,
                f"schedule_at({time!r}) is before the source's own clock "
                f"{source.simulator.now!r}")

    # -- per-event monotonicity --------------------------------------------------

    def before_event(self, source, global_time: float) -> None:
        self.events_checked += 1
        if global_time < self._kernel.now:
            self._report(
                CLOCK_REGRESSION, source.name,
                f"event at global {global_time!r} would rewind the global "
                f"clock from {self._kernel.now!r}")

    def after_event(self, source) -> None:
        local_now = source.simulator.now
        mark = self._local_marks.get(source.name)
        if mark is not None and local_now < mark:
            self._report(
                CLOCK_REGRESSION, source.name,
                f"source clock moved backwards: {local_now!r} < high-water "
                f"mark {mark!r} (a callback rewound the clock)")
        else:
            self._local_marks[source.name] = local_now

    # -- probe write barrier -----------------------------------------------------

    def _foreground_snapshot(self):
        from repro.sim.kernel import TELEMETRY_SOURCE

        kernel = self._kernel
        per_source = []
        for source in kernel.sources():
            if source.name == TELEMETRY_SOURCE:
                continue
            sim = source.simulator
            # peek first: it pops cancelled head events, so the pending
            # count that follows is stable across an inert probe.
            head = sim.peek_time()
            per_source.append((source.name, sim.now, sim.events_processed,
                               sim.pending_events, head))
        return (kernel.now, kernel.fingerprint, kernel.stats.events_total,
                tuple(per_source))

    def before_probe(self):
        self.probes_checked += 1
        return self._foreground_snapshot()

    def after_probe(self, before) -> None:
        after = self._foreground_snapshot()
        if after == before:
            return
        self._report(PROBE_MUTATION, self._describe_probe_diff(before, after),
                     "probe mutated foreground state: "
                     + self._probe_diff_detail(before, after))

    @staticmethod
    def _describe_probe_diff(before, after) -> str:
        from repro.sim.kernel import TELEMETRY_SOURCE

        before_sources = {entry[0]: entry for entry in before[3]}
        for entry in after[3]:
            if before_sources.get(entry[0]) != entry:
                return entry[0]
        return TELEMETRY_SOURCE

    @staticmethod
    def _probe_diff_detail(before, after) -> str:
        labels = ("global clock", "fingerprint", "events_total")
        for label, was, now in zip(labels, before[:3], after[:3]):
            if was != now:
                return f"{label} changed {was!r} -> {now!r}"
        before_sources = {entry[0]: entry for entry in before[3]}
        after_sources = {entry[0]: entry for entry in after[3]}
        for name, entry in after_sources.items():
            was = before_sources.get(name)
            if was != entry:
                if was is None:
                    return f"source {name!r} appeared during the probe"
                fields = ("now", "events_processed", "pending_events", "head")
                for field_name, old, new in zip(fields, was[1:], entry[1:]):
                    if old != new:
                        return (f"source {name!r} {field_name} changed "
                                f"{old!r} -> {new!r}")
        missing = set(before_sources) - set(after_sources)
        if missing:
            return f"source {sorted(missing)[0]!r} vanished during the probe"
        return "foreground snapshot changed"

    # -- sanctioned clamp diagnostics --------------------------------------------

    def note_clamp(self, kind: str, source: str,
                   requested: float, effective: float) -> None:
        """Record a sanctioned past-schedule containment firing."""
        self.clamps.append(ClampEvent(
            kind=kind, source=source, requested=requested,
            effective=effective, global_time=self._kernel.now))

    # -- end-of-run leak detection -----------------------------------------------

    def watch_map(self, name: str, mapping: Sized) -> None:
        """Register a pending-invocation map that must drain to empty.

        The sanitizer holds the mapping by reference and checks
        ``len() == 0`` from :meth:`check_leaks` (which the kernel's
        ``run_until_idle`` invokes once every source is drained).
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
    "KernelSanitizer", "SanitizerError", "SanitizerViolation", "ClampEvent",
    "CLOCK_REGRESSION", "PAST_SCHEDULE", "PROBE_MUTATION", "PENDING_LEAK",
]
