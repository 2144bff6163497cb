"""Workload generation, execution and metric collection.

The paper has no measured evaluation, so the benchmarks in this repository
drive the simulated systems with synthetic workloads: read/write mixes
with controlled concurrency (the delta parameter of Definition 2),
multi-writer bursts, and multi-object write loads parameterised by theta
(Section V-A.1).  This package provides:

* :mod:`repro.workloads.generator` -- declarative workload specifications
  and random generators;
* :mod:`repro.workloads.runner` -- executes a workload against any system
  exposing the common driving API (LDS, ABD or CAS) and collects results;
* :mod:`repro.workloads.metrics` -- latency / cost / throughput summaries.
"""

from repro import _lazy_exports

_EXPORTS = {
    "ScheduledOperation": "generator",
    "UniformKeySampler": "generator",
    "ZipfKeySampler": "generator",
    "Workload": "generator",
    "WorkloadGenerator": "generator",
    "WorkloadRunner": "runner",
    "KeyedWorkloadRunner": "runner",
    "WorkloadReport": "runner",
    "LatencySummary": "metrics",
    "ReadDistribution": "metrics",
    "summarize_latencies": "metrics",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
