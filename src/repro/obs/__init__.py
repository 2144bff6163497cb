"""Simulation-time observability: metrics, sampling, tracing.

The three pillars (see ISSUE/README "Observability"):

* :mod:`repro.obs.registry` -- the metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram`, with labels);
* :mod:`repro.obs.sampler` -- kernel-driven time-series probes of
  cluster health, exported as JSONL;
* :mod:`repro.obs.trace` -- per-operation spans in Chrome
  ``trace_event`` JSON (open in Perfetto / ``chrome://tracing``).

Two audit-grade probes build on the same kernel probe source:

* :mod:`repro.obs.live_audit` -- the streaming session auditor run
  online (``ClusterSimulation(live_audit=True)``), surfacing violations
  at sim time as registry counters, trace instants and JSONL rows;
* :mod:`repro.obs.availability` -- sampled L2-fragment presence with
  per-object confidence bounds, catching silent under-replication in
  O(samples) instead of O(cluster).

Tail-latency observability builds on the span stream (see README
"Tail latency & SLOs"):

* :mod:`repro.obs.latency` -- mergeable :class:`QuantileSketch`
  instruments plus the :class:`LatencyTracker` decomposing every
  completed op into the phase taxonomy;
* :mod:`repro.obs.critical_path` -- pure-function critical-path
  extraction and "ops in the p99+ band spend X% in phase Y"
  attribution, live or from a recorded trace;
* :mod:`repro.obs.slo` -- per-op-class latency/availability targets
  with error-budget accounting and burn-rate probes.

:class:`Telemetry` bundles them for :class:`ClusterSimulation`; the
governing invariant is that all of it is pure observation -- kernel
fingerprints and histories are byte-identical with telemetry on or off.

This package is imported *by* the simulation layers and must therefore
never import :mod:`repro.sim` or :mod:`repro.cluster`; everything that
touches a simulation is duck-typed.
"""

from repro.obs.availability import (
    DEFAULT_AVAILABILITY_INTERVAL,
    AvailabilityAssessment,
    AvailabilityMonitor,
)
from repro.obs.critical_path import (
    OP_CLASSES,
    PHASES,
    TracedOp,
    critical_path,
    extract_ops,
)
from repro.obs.latency import (
    DEFAULT_RELATIVE_ERROR,
    LatencyTracker,
    QuantileSketch,
    SpanSinkFanout,
)
from repro.obs.live_audit import DEFAULT_AUDIT_INTERVAL, LiveAuditProbe
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LabeledFamily,
    MetricsRegistry,
)
from repro.obs.report import render_run_report
from repro.obs.sampler import DEFAULT_INTERVAL, ClusterSampler
from repro.obs.slo import (
    DEFAULT_SLO_INTERVAL,
    SLO,
    SLOTracker,
    default_slos,
)
from repro.obs.telemetry import Telemetry
from repro.obs.trace import TS_SCALE, TraceRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabeledFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_INTERVAL",
    "ClusterSampler",
    "TraceRecorder",
    "TS_SCALE",
    "Telemetry",
    "render_run_report",
    "AvailabilityAssessment",
    "AvailabilityMonitor",
    "DEFAULT_AVAILABILITY_INTERVAL",
    "DEFAULT_AUDIT_INTERVAL",
    "LiveAuditProbe",
    "DEFAULT_RELATIVE_ERROR",
    "DEFAULT_SLO_INTERVAL",
    "LatencyTracker",
    "OP_CLASSES",
    "PHASES",
    "QuantileSketch",
    "SLO",
    "SLOTracker",
    "SpanSinkFanout",
    "TracedOp",
    "critical_path",
    "default_slos",
    "extract_ops",
]
