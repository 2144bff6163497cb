"""Simulation-time observability: metrics, sampling, tracing.

The three pillars (see ISSUE/README "Observability"):

* :mod:`repro.obs.registry` -- the metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`QuantileSketch`, with
  labels);
* :mod:`repro.obs.sampler` -- a time-series probe of cluster health,
  exported as JSONL;
* :mod:`repro.obs.trace` -- per-operation spans in Chrome
  ``trace_event`` JSON (open in Perfetto / ``chrome://tracing``).

Two audit-grade probes build on the same kernel probe loop:

* :mod:`repro.obs.live_audit` -- the streaming session auditor run
  online (``Telemetry(live_audit=True)``), surfacing violations
  at sim time as registry counters, trace instants and JSONL rows;
* :mod:`repro.obs.availability` -- sampled L2-fragment presence with
  per-object confidence bounds, catching silent under-replication in
  O(samples) instead of O(cluster).

Tail-latency observability builds on the span stream (see README
"Tail latency & SLOs"):

* :mod:`repro.obs.latency` -- the mergeable :class:`QuantileSketch`
  plus the :class:`LatencyTracker` decomposing every completed op into
  the phase taxonomy;
* :mod:`repro.obs.critical_path` -- pure-function critical-path
  extraction and "ops in the p99+ band spend X% in phase Y"
  attribution;
* :mod:`repro.obs.slo` -- per-op-class latency/availability targets
  with error-budget accounting and burn-rate probes.

:class:`Telemetry` bundles them for :class:`ClusterSimulation` and
registers the sampler, the auditor, the availability monitor and the SLO
tracker as families of the kernel's one periodic probe loop
(``GlobalScheduler.every``); the governing invariant is that all of it is pure observation -- kernel
fingerprints and histories are byte-identical with telemetry on or off.

This package is imported *by* the simulation layers and must therefore
never import :mod:`repro.sim` or :mod:`repro.cluster`; everything that
touches a simulation is duck-typed.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Counter": "registry",
    "Gauge": "registry",
    "LabeledFamily": "registry",
    "MetricsRegistry": "registry",
    "DEFAULT_INTERVAL": "sampler",
    "ClusterSampler": "sampler",
    "TraceRecorder": "trace",
    "TS_SCALE": "trace",
    "Telemetry": "telemetry",
    "render_run_report": "report",
    "AvailabilityAssessment": "availability",
    "AvailabilityMonitor": "availability",
    "DEFAULT_AVAILABILITY_INTERVAL": "availability",
    "DEFAULT_AUDIT_INTERVAL": "live_audit",
    "LiveAuditProbe": "live_audit",
    "DEFAULT_RELATIVE_ERROR": "latency",
    "DEFAULT_SLO_INTERVAL": "slo",
    "LatencyTracker": "latency",
    "OP_CLASSES": "critical_path",
    "PHASES": "critical_path",
    "QuantileSketch": "latency",
    "SLO": "slo",
    "SLOTracker": "slo",
    "SpanSinkFanout": "latency",
    "critical_path": "critical_path",
    "default_slos": "slo",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
