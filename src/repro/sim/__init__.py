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

from repro.sim.kernel import (
    GlobalScheduler,
    KernelStats,
    SimulatorSource,
    KERNEL_SOURCE,
    TELEMETRY_SOURCE,
)
from repro.sim.scenario import (
    Scenario,
    ScenarioAction,
    ScenarioEngine,
    correlated_pool_failure,
    degraded_reads_during_catch_up,
    flash_crowd,
    forwarded_writes_during_failover,
    migration_under_load,
    quorum_reads_under_lag,
    repair_under_load,
    replica_failover_under_load,
)
from repro.sim.harness import ClusterSimulation
from repro.sim.sanitizer import (
    KernelSanitizer,
    SanitizerError,
    SanitizerViolation,
)

__all__ = [
    "GlobalScheduler",
    "KernelStats",
    "SimulatorSource",
    "KernelSanitizer",
    "SanitizerError",
    "SanitizerViolation",
    "KERNEL_SOURCE",
    "TELEMETRY_SOURCE",
    "Scenario",
    "ScenarioAction",
    "ScenarioEngine",
    "ClusterSimulation",
    "repair_under_load",
    "migration_under_load",
    "correlated_pool_failure",
    "flash_crowd",
    "replica_failover_under_load",
    "degraded_reads_during_catch_up",
    "quorum_reads_under_lag",
    "forwarded_writes_during_failover",
]
