"""SLO targets, error-budget accounting and burn-rate tracking.

An :class:`SLO` declares, per operation class, the latency objective
("``target_fraction`` of ops complete within ``latency_target``") and an
availability objective ("at least ``availability_target`` of invoked ops
complete").  :class:`SLOTracker` holds a set of SLOs against a
:class:`~repro.obs.latency.LatencyTracker` and accounts continuously:

* **error budget** -- out of the ops seen so far, the objective permits
  ``ops * (1 - target_fraction)`` breaches; ``budget_consumed`` is the
  fraction of that allowance already spent (>1 means the SLO is blown);
* **burn rate** -- the breach fraction divided by the allowed fraction:
  the speed the budget is being consumed at (1.0 = exactly on budget,
  10x = blowing through it an order of magnitude too fast).  Both a
  cumulative rate and a per-probe-window rate are tracked; the window
  rate is what alerting keys on.

The tracker is a family of the kernel's one periodic probe loop
(:meth:`GlobalScheduler.every`, like
:class:`~repro.obs.sampler.ClusterSampler`): at every tick it folds the
latency tracker's new records into registry counters/gauges, appends a
JSONL row, and emits Perfetto counter tracks (per-class p99 + window
burn rate).  Probes bypass the kernel clock,
fingerprint and stats, so runs are byte-identical with SLO tracking on
or off; :func:`SLOTracker.snapshot` also computes the full status on
demand (the run report uses it), independent of probe timing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.critical_path import OP_CLASSES
from repro.obs.latency import LatencyTracker
from repro.obs.registry import MetricsRegistry

#: Default probe cadence, in virtual time units.
DEFAULT_SLO_INTERVAL = 50.0

#: Default per-class latency objectives, in virtual time units.  Chosen
#: from the shipped scenarios' observed distributions: forwarded writes
#: pay a network hop, quorum reads a fan-out round trip.
DEFAULT_LATENCY_TARGETS: Dict[str, float] = {
    "write": 40.0,
    "forwarded-write": 60.0,
    "protocol-read": 40.0,
    "quorum-read": 60.0,
    "follower-read": 40.0,
}


@dataclass(frozen=True)
class SLO:
    """One operation class's service-level objective."""

    op_class: str
    #: "``target_fraction`` of ops complete within this many time units."
    latency_target: float
    target_fraction: float = 0.99
    #: Fraction of invoked ops that must complete (not strand).
    availability_target: float = 0.999

    def __post_init__(self) -> None:
        if not 0.0 < self.target_fraction < 1.0:
            raise ValueError("target_fraction must be in (0, 1)")
        if self.latency_target <= 0.0:
            raise ValueError("latency_target must be positive")

    @property
    def allowed_breach_fraction(self) -> float:
        return 1.0 - self.target_fraction


def default_slos(target_fraction: float = 0.99) -> Tuple[SLO, ...]:
    """One SLO per operation class, with the shipped default targets."""
    return tuple(
        SLO(op_class=op_class,
            latency_target=DEFAULT_LATENCY_TARGETS[op_class],
            target_fraction=target_fraction)
        for op_class in OP_CLASSES
    )


@dataclass
class SLOStatus:
    """One class's budget accounting at a point in time."""

    op_class: str
    ops: int
    breaches: int
    latency_target: float
    target_fraction: float
    #: Fraction of the error budget consumed so far (>1 = SLO blown).
    budget_consumed: float
    #: Cumulative burn rate (1.0 = consuming exactly on budget).
    burn_rate: float

    @property
    def met(self) -> bool:
        return self.budget_consumed <= 1.0


class SLOTracker:
    """Error-budget accounting over a latency tracker, as a kernel probe."""

    def __init__(self, simulation, latency: LatencyTracker, *,
                 slos: Optional[Tuple[SLO, ...]] = None,
                 interval: float = DEFAULT_SLO_INTERVAL,
                 registry: Optional[MetricsRegistry] = None,
                 trace=None) -> None:
        if interval <= 0:
            raise ValueError("the SLO probe interval must be positive")
        self.simulation = simulation
        self.latency = latency
        self.slos: Dict[str, SLO] = {
            slo.op_class: slo for slo in (slos if slos is not None
                                          else default_slos())
        }
        self.interval = float(interval)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        self.samples: List[dict] = []
        #: Cursor into ``latency.records``; everything before it has been
        #: folded into the counters already.
        self._cursor = 0
        #: op_class -> (ops, breaches) folded so far.
        self._ops: Dict[str, int] = {}
        self._breaches: Dict[str, int] = {}
        #: Window accounting: per-class (ops, breaches) since last tick.
        self._window_ops: Dict[str, int] = {}
        self._window_breaches: Dict[str, int] = {}
        registry = self.registry
        self._c_ops = registry.counter(
            "slo_ops", "operations assessed against their class SLO",
            labels=("op_class",))
        self._c_breaches = registry.counter(
            "slo_latency_breaches",
            "operations that exceeded their class latency target",
            labels=("op_class",))
        self._g_budget = registry.gauge(
            "slo_budget_consumed",
            "fraction of the class error budget consumed (>1 = blown)",
            labels=("op_class",))
        self._g_burn = registry.gauge(
            "slo_burn_rate",
            "cumulative burn rate (1.0 = consuming exactly on budget)",
            labels=("op_class",))

    # -- accounting ----------------------------------------------------------------

    def _ingest(self) -> None:
        """Fold records the latency tracker completed since last look."""
        records = self.latency.records
        while self._cursor < len(records):
            record = records[self._cursor]
            self._cursor += 1
            slo = self.slos.get(record.op_class)
            if slo is None:
                continue
            cls = record.op_class
            self._ops[cls] = self._ops.get(cls, 0) + 1
            self._window_ops[cls] = self._window_ops.get(cls, 0) + 1
            self._c_ops.labels(op_class=cls).inc()
            if record.total > slo.latency_target:
                self._breaches[cls] = self._breaches.get(cls, 0) + 1
                self._window_breaches[cls] = \
                    self._window_breaches.get(cls, 0) + 1
                self._c_breaches.labels(op_class=cls).inc()

    def _status_for(self, slo: SLO, ops: int, breaches: int) -> SLOStatus:
        allowed = slo.allowed_breach_fraction
        breach_fraction = breaches / ops if ops else 0.0
        burn = breach_fraction / allowed if allowed else 0.0
        budget = (breaches / (ops * allowed)) if ops else 0.0
        return SLOStatus(op_class=slo.op_class, ops=ops, breaches=breaches,
                         latency_target=slo.latency_target,
                         target_fraction=slo.target_fraction,
                         budget_consumed=budget, burn_rate=burn)

    def snapshot(self) -> Dict[str, SLOStatus]:
        """The current per-class status (ingests any pending records)."""
        self._ingest()
        out: Dict[str, SLOStatus] = {}
        for op_class in OP_CLASSES:
            slo = self.slos.get(op_class)
            if slo is None:
                continue
            ops = self._ops.get(op_class, 0)
            if ops == 0:
                continue
            out[op_class] = self._status_for(
                slo, ops, self._breaches.get(op_class, 0))
        return out

    def availability(self) -> Dict[str, dict]:
        """Invoked-vs-completed availability per op kind, vs target."""
        out: Dict[str, dict] = {}
        target = max((slo.availability_target
                      for slo in self.slos.values()), default=0.999)
        for kind in ("write", "read"):
            invoked = self.latency.invoked_by_kind.get(kind, 0)
            completed = self.latency.completed_by_kind.get(kind, 0)
            fraction = completed / invoked if invoked else 1.0
            out[kind] = {
                "invoked": invoked,
                "completed": completed,
                "fraction": fraction,
                "target": target,
                "met": fraction >= target,
            }
        return out

    # -- probing -------------------------------------------------------------------

    def tick(self, at: float) -> None:
        """Append one SLO accounting row at virtual time ``at``."""
        self._ingest()
        classes = {}
        for op_class in OP_CLASSES:
            slo = self.slos.get(op_class)
            if slo is None:
                continue
            ops = self._ops.get(op_class, 0)
            breaches = self._breaches.get(op_class, 0)
            status = self._status_for(slo, ops, breaches)
            window_ops = self._window_ops.get(op_class, 0)
            window_breaches = self._window_breaches.get(op_class, 0)
            window = self._status_for(slo, window_ops, window_breaches)
            self._g_budget.labels(op_class=op_class).set(
                status.budget_consumed)
            self._g_burn.labels(op_class=op_class).set(status.burn_rate)
            if ops:
                classes[op_class] = {
                    "ops": ops,
                    "breaches": breaches,
                    "budget_consumed": status.budget_consumed,
                    "burn_rate": status.burn_rate,
                    "window_burn_rate": window.burn_rate,
                }
            if self.trace is not None and ops:
                sketch = self.latency.sketch(op_class)
                self.trace.counter(f"slo {op_class}", at, {
                    "p99": sketch.p99,
                    "burn": window.burn_rate,
                })
        self._window_ops.clear()
        self._window_breaches.clear()
        self.samples.append({
            "t": at,
            "classes": classes,
            "availability": self.availability(),
            "stranded": self.latency.stranded,
        })

    # -- export --------------------------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(json.dumps(row, sort_keys=True) + "\n"
                       for row in self.samples)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


__all__ = [
    "DEFAULT_LATENCY_TARGETS",
    "DEFAULT_SLO_INTERVAL",
    "SLO",
    "SLOStatus",
    "SLOTracker",
    "default_slos",
]
