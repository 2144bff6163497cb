"""repro -- a full reproduction of "A Layered Architecture for Erasure-Coded
Consistent Distributed Storage" (Konwar, Prakash, Lynch, Médard; PODC 2017).

The package implements the LDS two-layer atomic storage algorithm together
with every substrate it depends on:

* ``repro.gf`` -- GF(2^8) arithmetic and linear algebra;
* ``repro.codes`` -- Reed-Solomon, product-matrix MBR/MSR regenerating
  codes, replication, and the layered (C, C1, C2) code;
* ``repro.net`` -- an asynchronous message-passing discrete-event
  simulator with crash failures and per-link latency bounds, and the one
  event pump every simulated run goes through;
* ``repro.core`` -- the LDS protocol (clients, L1 servers, L2 servers),
  cost accounting and the closed-form analysis of Section V;
* ``repro.baselines`` -- ABD (replication) and CAS (single-layer coded)
  atomic registers for comparison;
* ``repro.consistency`` -- operation histories, atomicity checking, and
  the cross-shard session-consistency auditor with its fault-injection
  harness;
* ``repro.workloads`` -- workload generation and measurement;
* ``repro.cluster`` -- the scale-out layer: consistent-hash placement of
  object shards onto server pools, a keyed object router fanning out to
  per-shard LDS instances, rate-limited background repair, and r-way
  replica groups with pluggable read routing and pool-loss failover;
* ``repro.sim`` -- the cluster on the global clock: a declarative
  scenario engine and :class:`ClusterSimulation`, the cluster facade
  (membership + router + repair, pre-wired on one event pump);
* ``repro.obs`` -- simulation-time observability: the metrics registry,
  kernel-driven time-series sampling and per-operation Chrome trace
  spans -- all pure observation (telemetry on or off, runs are
  byte-identical).

Quickstart::

    from repro import LDSConfig, LDSSystem

    config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
    system = LDSSystem(config, num_writers=1, num_readers=1)
    system.write(b"hello edge storage")
    print(system.read().value)
"""

import sys
from types import ModuleType


class _ExportFirstPackage(ModuleType):
    """A package one of whose exports shares its name with a submodule
    (``repro.obs.critical_path`` is both a function and its module).

    The import system binds every loaded submodule onto its package; here
    that binding is dropped so the name keeps resolving to the export.
    """

    def __setattr__(self, name, value):
        if not (isinstance(value, ModuleType) and name in self.__all__):
            super().__setattr__(name, value)


def _lazy_exports(package, table):
    """PEP 562 hooks for ``package``: each exported name imports its module
    ``package.<table[name]>`` on first use and is then cached in the
    package namespace, so importing a package costs only its own body."""
    namespace = vars(sys.modules[package])
    if any(name == source for name, source in table.items()):
        sys.modules[package].__class__ = _ExportFirstPackage

    def __getattr__(name):
        if name not in table:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # __import__, not importlib, so ``-X importtime`` sees the import.
        module = f"{package}.{table[name]}"
        __import__(module)
        value = namespace[name] = getattr(sys.modules[module], name)
        return value

    def __dir__():
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__


_EXPORTS = {
    "LDSConfig": "core.config",
    "LDSSystem": "core.system",
    "Tag": "core.tags",
    "ABDSystem": "baselines.abd",
    "CASSystem": "baselines.cas",
    "LayeredCode": "codes.layered",
    "ProductMatrixMBRCode": "codes.product_matrix",
    "ProductMatrixMSRCode": "codes.product_matrix",
    "ReedSolomonCode": "codes.reed_solomon",
    "ReplicationCode": "codes.replication",
    "History": "consistency.history",
    "check_atomicity": "consistency.linearizability",
    "ClusterAuditReport": "consistency.sessions",
    "SessionAuditReport": "consistency.sessions",
    "SessionViolation": "consistency.sessions",
    "check_sessions": "consistency.sessions",
    "inject_session_violation": "consistency.injection",
    "Network": "net.network",
    "FixedLatencyModel": "net.latency",
    "BoundedLatencyModel": "net.latency",
    "ExponentialLatencyModel": "net.latency",
    "Workload": "workloads.generator",
    "WorkloadGenerator": "workloads.generator",
    "WorkloadRunner": "workloads.runner",
    "KeyedWorkloadRunner": "workloads.runner",
    "UniformKeySampler": "workloads.generator",
    "ZipfKeySampler": "workloads.generator",
    "ClusterNode": "cluster.membership",
    "HashRing": "cluster.ring",
    "Membership": "cluster.membership",
    "ObjectRouter": "cluster.router",
    "RebalancePlan": "cluster.placement",
    "RepairScheduler": "cluster.repair",
    "ReplicationConfig": "cluster.read_policy",
    "make_read_policy": "cluster.read_policy",
    "GlobalScheduler": "net.kernel",
    "ClusterSimulation": "sim.harness",
    "Scenario": "sim.scenario",
    "ScenarioAction": "sim.scenario",
    "ScenarioEngine": "sim.scenario",
    "MetricsRegistry": "obs.registry",
    "Telemetry": "obs.telemetry",
}

__version__ = "1.2.0"

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
