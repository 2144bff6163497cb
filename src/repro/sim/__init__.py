"""The global-clock simulation subsystem.

The cluster layer federates many per-shard discrete-event simulators; this
package merges them onto **one monotonic global clock** so cross-shard
timing phenomena -- repair slots competing with foreground load, migrations
overlapping writes, correlated failures, latency-regime shifts -- are
actually simulated instead of serialised away:

* :mod:`repro.sim.kernel` -- :class:`GlobalScheduler`, the unified event
  pump multiplexing per-shard simulators (plus its own kernel queue for
  scenario actions and workload arrivals) with deterministic merged
  ordering under a fixed seed;
* :mod:`repro.sim.scenario` -- declarative timed scripts
  (:class:`Scenario` / :class:`ScenarioEngine`) of crash/recover, pool
  join/leave, latency-regime shifts and workload phases, with eight
  shipped scenarios;
* :mod:`repro.sim.harness` -- :class:`ClusterSimulation`, the cluster
  facade wiring seeded membership, router and repair scheduler to the
  kernel and exposing keyed driving, failure injection, workload arrival
  scheduling, scenario application and the merged global timeline;
* :mod:`repro.sim.sanitizer` -- :class:`KernelSanitizer`, opt-in runtime
  invariant checking on the pump (clock monotonicity, local-past
  scheduling, probe purity, pending-map leaks) with zero fingerprint
  impact.
"""

from repro import _lazy_exports

_EXPORTS = {
    "GlobalScheduler": "kernel",
    "KernelStats": "kernel",
    "SimulatorSource": "kernel",
    "KernelSanitizer": "sanitizer",
    "SanitizerError": "sanitizer",
    "SanitizerViolation": "sanitizer",
    "KERNEL_SOURCE": "kernel",
    "TELEMETRY_SOURCE": "kernel",
    "Scenario": "scenario",
    "ScenarioAction": "scenario",
    "ScenarioEngine": "scenario",
    "ClusterSimulation": "harness",
    "repair_under_load": "scenario",
    "migration_under_load": "scenario",
    "correlated_pool_failure": "scenario",
    "flash_crowd": "scenario",
    "replica_failover_under_load": "scenario",
    "degraded_reads_during_catch_up": "scenario",
    "quorum_reads_under_lag": "scenario",
    "forwarded_writes_during_failover": "scenario",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
