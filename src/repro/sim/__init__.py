"""The cluster's simulations on the global clock.

Every shard of the cluster runs on **one** event queue and one monotonic
global clock -- the pump of :mod:`repro.net.kernel`, which every register
runs on -- so cross-shard timing phenomena -- repair slots competing
with foreground load, migrations overlapping writes, correlated failures,
latency-regime shifts -- are actually simulated instead of serialised
away:

* :mod:`repro.sim.scenario` -- declarative timed scripts
  (:class:`Scenario` / :class:`ScenarioEngine`) of crash/recover, pool
  join/leave, latency-regime shifts and workload phases, with eight
  shipped scenarios;
* :mod:`repro.sim.harness` -- :class:`ClusterSimulation`, the cluster's
  :class:`~repro.cluster.router.ObjectRouter` with seeded membership,
  repair scheduler, telemetry and scenarios wired to the kernel, adding
  failure injection, scenario application, the audit and the merged
  global timeline to the router's keyed driving API;
* :mod:`repro.sim.kernel` -- only a re-export of the pump's names that
  ``lds_bench`` reads by this path (ROADMAP item 20 retires it).
"""

from repro import _lazy_exports

_EXPORTS = {
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
