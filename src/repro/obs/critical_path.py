"""Critical-path extraction over per-operation phase spans.

An operation's trace is a root span plus a flat set of child phase
spans (see :mod:`repro.obs.trace` for the taxonomy).  This module turns
that shape into the two artefacts tail-latency analysis needs:

* a **critical path** -- the ordered sequence of phase segments that
  tile the operation's ``[begin, end]`` window, so every unit of
  end-to-end latency is attributed to exactly one phase.  Parallel
  quorum legs collapse to one ``quorum-wait`` segment (the merge waits
  for the *last* leg, so the slowest leg is the critical one), and any
  time no instrumented phase covers is ``queue-wait`` -- router
  batching, shard queueing, or the gap between a forward hop landing
  and the primary protocol picking the write up;
* an **attribution** -- "ops in this latency band spend X% of their
  time in phase Y", aggregated over many phase vectors.

Everything here is pure functions over plain data: no simulation
access, no clocks, no registry.  :class:`~repro.obs.latency.LatencyTracker`
is the one caller: it feeds the functions each operation's span calls
live and aggregates bands through :func:`attribute` / :func:`dominant`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The canonical phase taxonomy (see README "Tail latency & SLOs").
PHASE_QUEUE = "queue-wait"
PHASE_FORWARD = "forward-hop"
PHASE_FREEZE = "freeze-wait"
PHASE_QUORUM = "quorum-wait"
PHASE_STORE_READ = "store-read"
PHASE_PROTOCOL = "protocol"
PHASE_FALLBACK = "fallback-reread"
PHASE_REPLICATION = "replication-apply"

PHASES: Tuple[str, ...] = (
    PHASE_QUEUE, PHASE_FORWARD, PHASE_FREEZE, PHASE_QUORUM,
    PHASE_STORE_READ, PHASE_PROTOCOL, PHASE_FALLBACK, PHASE_REPLICATION,
)

#: Child-span name prefix -> canonical phase.  Span names carry a pool
#: suffix (``quorum-leg pool-2``); the first token identifies the phase.
_CHILD_PHASES = {
    "forward-hop": PHASE_FORWARD,
    "freeze-wait": PHASE_FREEZE,
    "quorum-leg": PHASE_QUORUM,
    "store-read": PHASE_STORE_READ,
    "replication-apply": PHASE_REPLICATION,
}

#: The five operation classes sketches are kept for.
OP_CLASSES: Tuple[str, ...] = (
    "write", "forwarded-write", "protocol-read", "quorum-read",
    "follower-read",
)


def child_phase(name: str) -> Optional[str]:
    """The canonical phase of a child span name, or None for non-phase
    children (instant markers are handled by the caller)."""
    token = name.split(" ", 1)[0]
    if token.startswith("protocol-"):
        return PHASE_PROTOCOL
    return _CHILD_PHASES.get(token)


def classify_op(kind: str, phases_seen: Iterable[str]) -> str:
    """The operation class from its kind and the phases it passed through.

    A write that paid a forward hop is a *forwarded write*; a read is
    classed by how it was served (quorum fan-out beats a store read
    beats the primary protocol, matching the routing precedence)."""
    seen = set(phases_seen)
    if kind == "write":
        return "forwarded-write" if PHASE_FORWARD in seen else "write"
    if PHASE_QUORUM in seen:
        return "quorum-read"
    if PHASE_STORE_READ in seen:
        return "follower-read"
    return "protocol-read"


@dataclass(frozen=True)
class PhaseSegment:
    """One segment of an operation's critical path."""

    phase: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def collapse_parallel(intervals: Sequence[Tuple[str, float, float]]
                      ) -> List[Tuple[str, float, float]]:
    """Fold same-phase parallel intervals into one critical interval.

    Quorum legs (and any other fan-out phase) run concurrently; the
    merge fires when the *last* leg answers, so the interval that
    matters spans the earliest dispatch to the latest response."""
    folded: Dict[str, List[float]] = {}
    order: List[str] = []
    singles: List[Tuple[str, float, float]] = []
    for phase, start, end in intervals:
        if phase == PHASE_QUORUM:
            bounds = folded.get(phase)
            if bounds is None:
                folded[phase] = [start, end]
                order.append(phase)
            else:
                bounds[0] = min(bounds[0], start)
                bounds[1] = max(bounds[1], end)
        else:
            singles.append((phase, start, end))
    out = singles + [(phase, folded[phase][0], folded[phase][1])
                     for phase in order]
    out.sort(key=lambda iv: (iv[1], iv[2], iv[0]))
    return out


def critical_path(begin: float, end: float,
                  intervals: Sequence[Tuple[str, float, float]]
                  ) -> List[PhaseSegment]:
    """Tile ``[begin, end]`` with phase segments.

    Walks the (collapsed) intervals in start order; time covered by an
    instrumented phase is attributed to it, overlap goes to whichever
    phase reached the instant first, and every uncovered gap is
    ``queue-wait``.  The segments partition the window exactly, so
    their durations sum to the operation's end-to-end latency."""
    segments: List[PhaseSegment] = []
    cursor = begin
    for phase, start, stop in collapse_parallel(intervals):
        stop = min(stop, end)
        if stop <= cursor:
            continue
        start = max(start, cursor)
        if start > cursor:
            segments.append(PhaseSegment(PHASE_QUEUE, cursor, start))
        segments.append(PhaseSegment(phase, start, stop))
        cursor = stop
    if cursor < end:
        segments.append(PhaseSegment(PHASE_QUEUE, cursor, end))
    return segments


def phase_durations(segments: Iterable[PhaseSegment]) -> Dict[str, float]:
    """Total duration per phase (adjacent same-phase segments merge)."""
    out: Dict[str, float] = {}
    for segment in segments:
        out[segment.phase] = out.get(segment.phase, 0.0) + segment.duration
    return out


def attribute(phase_vectors: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Fraction of total time spent per phase across many operations.

    The aggregate answer to "ops in this band spend X% in phase Y";
    fractions sum to 1 whenever any time was recorded."""
    totals: Dict[str, float] = {}
    grand = 0.0
    for vector in phase_vectors:
        for phase, duration in vector.items():
            totals[phase] = totals.get(phase, 0.0) + duration
            grand += duration
    if grand <= 0.0:
        return {}
    return {phase: duration / grand
            for phase, duration in sorted(totals.items(),
                                          key=lambda kv: (-kv[1], kv[0]))}


def dominant(fractions: Dict[str, float]) -> Optional[Tuple[str, float]]:
    """The largest-share ``(phase, fraction)``, or None when empty."""
    if not fractions:
        return None
    return max(fractions.items(), key=lambda kv: (kv[1], kv[0]))


__all__ = [
    "OP_CLASSES",
    "PHASES",
    "PHASE_FALLBACK",
    "PHASE_FORWARD",
    "PHASE_FREEZE",
    "PHASE_PROTOCOL",
    "PHASE_QUEUE",
    "PHASE_QUORUM",
    "PHASE_REPLICATION",
    "PHASE_STORE_READ",
    "PhaseSegment",
    "attribute",
    "child_phase",
    "classify_op",
    "collapse_parallel",
    "critical_path",
    "dominant",
    "phase_durations",
]
