"""repro -- a full reproduction of "A Layered Architecture for Erasure-Coded
Consistent Distributed Storage" (Konwar, Prakash, Lynch, Médard; PODC 2017).

The package implements the LDS two-layer atomic storage algorithm together
with every substrate it depends on:

* ``repro.gf`` -- GF(2^8) arithmetic and linear algebra;
* ``repro.codes`` -- Reed-Solomon, product-matrix MBR/MSR regenerating
  codes, RLNC, replication, and the layered (C, C1, C2) code;
* ``repro.net`` -- an asynchronous message-passing discrete-event
  simulator with crash failures and per-link latency bounds;
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
* ``repro.sim`` -- the global-clock simulation kernel: one merged event
  pump over every per-shard simulator, a declarative scenario engine, and
  :class:`ClusterSimulation`, the cluster facade (membership + router +
  repair, pre-wired on that kernel);
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

from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.core.tags import Tag
from repro.core.multi_object import MultiObjectSystem
from repro.baselines import ABDSystem, CASSystem
from repro.codes import (
    LayeredCode,
    ProductMatrixMBRCode,
    ProductMatrixMSRCode,
    ReedSolomonCode,
    ReplicationCode,
)
from repro.consistency import (
    ClusterAuditReport,
    History,
    LinearizabilityChecker,
    SessionAuditReport,
    SessionViolation,
    check_atomicity_by_tags,
    check_sessions,
    inject_session_violation,
)
from repro.net import (
    BoundedLatencyModel,
    ExponentialLatencyModel,
    FixedLatencyModel,
    Network,
    Simulator,
)
from repro.workloads import (
    KeyedWorkloadRunner,
    UniformKeySampler,
    Workload,
    WorkloadGenerator,
    WorkloadRunner,
    ZipfKeySampler,
)
from repro.cluster import (
    ClusterNode,
    HashRing,
    Membership,
    ObjectRouter,
    RebalancePlan,
    RepairScheduler,
    ReplicationConfig,
    make_read_policy,
)
from repro.sim import (
    ClusterSimulation,
    GlobalScheduler,
    Scenario,
    ScenarioAction,
    ScenarioEngine,
)
from repro.obs import MetricsRegistry, Telemetry

__version__ = "1.2.0"

__all__ = [
    "LDSConfig",
    "LDSSystem",
    "MultiObjectSystem",
    "Tag",
    "ABDSystem",
    "CASSystem",
    "LayeredCode",
    "ProductMatrixMBRCode",
    "ProductMatrixMSRCode",
    "ReedSolomonCode",
    "ReplicationCode",
    "History",
    "LinearizabilityChecker",
    "check_atomicity_by_tags",
    "ClusterAuditReport",
    "SessionAuditReport",
    "SessionViolation",
    "check_sessions",
    "inject_session_violation",
    "Simulator",
    "Network",
    "FixedLatencyModel",
    "BoundedLatencyModel",
    "ExponentialLatencyModel",
    "Workload",
    "WorkloadGenerator",
    "WorkloadRunner",
    "KeyedWorkloadRunner",
    "UniformKeySampler",
    "ZipfKeySampler",
    "ClusterNode",
    "HashRing",
    "Membership",
    "ObjectRouter",
    "RebalancePlan",
    "RepairScheduler",
    "ReplicationConfig",
    "make_read_policy",
    "GlobalScheduler",
    "ClusterSimulation",
    "Scenario",
    "ScenarioAction",
    "ScenarioEngine",
    "MetricsRegistry",
    "Telemetry",
    "__version__",
]
