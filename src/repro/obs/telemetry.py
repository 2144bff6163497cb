"""The telemetry facade: one object configuring every pillar.

Construct a :class:`Telemetry`, hand it to
:class:`~repro.sim.harness.ClusterSimulation` (``telemetry=``), and the
harness threads it through the cluster:

* :meth:`Telemetry.attach` registers a read-through ``router_*``
  instrument on :attr:`registry` per field of the router's plain
  ``RouterStats``, so the router never calls into ``obs``;
* ``trace=True`` attaches a :class:`TraceRecorder` that the router and
  replica layers emit per-operation spans into;
* ``sample_interval=<units>`` starts a :class:`ClusterSampler` on the
  kernel's telemetry probe source;
* ``live_audit=True`` runs the streaming session auditor online
  (:class:`~repro.obs.live_audit.LiveAuditProbe`);
* ``availability_interval=<units>`` starts the sampling
  :class:`~repro.obs.availability.AvailabilityMonitor`;
* ``latency=True`` attaches a :class:`~repro.obs.latency.LatencyTracker`
  to the same span stream the tracer consumes (per-op-class quantile
  sketches, phase decomposition, critical-path attribution);
* ``slo_interval=<units>`` runs a :class:`~repro.obs.slo.SLOTracker`
  accounting error budgets and burn rates against the default
  per-op-class targets (implies ``latency``).

The sampler, the auditor, the availability monitor and the SLO tracker
are families of the kernel's one periodic probe loop
(:meth:`GlobalScheduler.every`), registered by :meth:`Telemetry.attach`.

Every pillar defaults to off except the registry (which costs a few
dict entries); :meth:`Telemetry.full` turns the passive pillars on
(tracer, sampler, latency; the audit pillars stay opt-in: they change
the *audit path*, not the execution).  None of the
pillars perturbs the simulation -- see the module docs of
:mod:`repro.obs.sampler` and :mod:`repro.net.kernel` for why runs stay
byte-identical with telemetry on or off.
"""

from __future__ import annotations

import math
from dataclasses import fields
from functools import partial
from typing import Optional

from repro.obs.availability import AvailabilityMonitor
from repro.obs.latency import LatencyTracker, SpanSinkFanout
from repro.obs.live_audit import LiveAuditProbe
from repro.obs.registry import MetricsRegistry
from repro.obs.report import render_run_report
from repro.obs.sampler import DEFAULT_INTERVAL, ClusterSampler
from repro.obs.slo import SLOTracker
from repro.obs.trace import TraceRecorder

#: RouterStats' dict fields -> (name, label); the rest are router_<field>.
_ROUTER_SERIES = {"reads_by_replica": ("router_reads_by_replica", "pool"),
                  "quorum_depths": ("router_quorum_depth", "depth")}


class Telemetry:
    """Configuration + sinks for one simulation's observability."""

    def __init__(self, *, trace: bool = False,
                 sample_interval: Optional[float] = None,
                 live_audit: bool = False,
                 availability_interval: Optional[float] = None,
                 latency: bool = False,
                 slo_interval: Optional[float] = None) -> None:
        if sample_interval is not None and not 0 < sample_interval < math.inf:
            raise ValueError("sample_interval must be positive and finite")
        self.registry = MetricsRegistry()
        self.trace: Optional[TraceRecorder] = \
            TraceRecorder() if trace else None
        self.sample_interval = sample_interval
        self.live_audit = bool(live_audit)
        self.availability_interval = availability_interval
        self.slo_interval = slo_interval
        #: SLO tracking implies the latency tracker it accounts against.
        self.latency: Optional[LatencyTracker] = None
        if latency or slo_interval is not None:
            self.latency = LatencyTracker(registry=self.registry)
        #: Filled by :meth:`attach`.
        self.sampler: Optional[ClusterSampler] = None
        self.auditor: Optional[LiveAuditProbe] = None
        self.availability: Optional[AvailabilityMonitor] = None
        self.slo: Optional[SLOTracker] = None

    @classmethod
    def full(cls, sample_interval: float = DEFAULT_INTERVAL) -> "Telemetry":
        """Every passive pillar on: registry + sampler + tracer +
        latency decomposition."""
        return cls(trace=True, sample_interval=sample_interval, latency=True)

    def op_sink(self):
        """The span sink the router/replica layers should emit into:
        the trace recorder, the latency tracker, or a fanout over both
        (None when neither pillar is on)."""
        if self.trace is not None and self.latency is not None:
            return SpanSinkFanout(self.trace, self.latency)
        if self.latency is not None:
            return self.latency
        return self.trace

    def attach(self, simulation) -> None:
        """Wire the configured pillars to a built simulation.

        Called once by ``ClusterSimulation.__init__`` after the kernel
        and cluster exist (but before any shard is built, so the audit
        feed's completion observers reach every shard).  The router's
        counters register first; then each probe becomes a
        :meth:`GlobalScheduler.every` family, in the order below.
        """
        stats = simulation.stats
        for stat in fields(stats):
            name, label = _ROUTER_SERIES.get(
                stat.name, (f"router_{stat.name}", None))
            self.registry.read_through(
                name, partial(getattr, stats, stat.name), label)
        kernel = simulation.kernel
        if self.live_audit and self.auditor is None:
            self.auditor = LiveAuditProbe(
                simulation, registry=self.registry, trace=self.trace)
            kernel.every(self.auditor.interval, self.auditor.tick)
        if self.availability_interval is not None and self.availability is None:
            self.availability = AvailabilityMonitor(
                simulation,
                interval=self.availability_interval,
                # Derived, not shared: reproducible per run seed, but a
                # different stream from every simulation RNG.
                seed=(getattr(simulation, "seed", 0) or 0) ^ 0xA5A11AB1,
                registry=self.registry,
                trace=self.trace,
            )
            kernel.every(self.availability.interval, self.availability.tick)
        if self.sample_interval is not None and self.sampler is None:
            self.sampler = ClusterSampler(
                simulation,
                interval=self.sample_interval,
                registry=self.registry,
                trace=self.trace,
            )
            kernel.every(self.sampler.interval, self.sampler.tick)
        if self.slo_interval is not None and self.slo is None:
            self.slo = SLOTracker(
                simulation,
                self.latency,
                interval=self.slo_interval,
                registry=self.registry,
                trace=self.trace,
            )
            kernel.every(self.slo.interval, self.slo.tick)

    def report(self, simulation) -> str:
        """The terminal run report for ``simulation``."""
        return render_run_report(simulation, self)


__all__ = ["Telemetry"]
