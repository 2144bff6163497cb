"""The sharded cluster layer: placement, routing and background repair.

The core package simulates *one* LDS object per
:class:`~repro.core.system.LDSSystem`; this package adds the cluster
machinery a real deployment of the paper's two-layer algorithm needs to
serve millions of objects:

* :mod:`repro.cluster.ring` -- consistent hashing with virtual nodes
  (:class:`HashRing`), mapping object keys onto named server pools;
* :mod:`repro.cluster.placement` -- placement maps and deterministic
  :class:`RebalancePlan` generation from membership changes;
* :mod:`repro.cluster.membership` -- :class:`ClusterNode` / pool modelling
  with join / leave / fail / recover events;
* :mod:`repro.cluster.router` -- :class:`ObjectRouter`, the keyed
  ``write/read`` front-end that fans out to per-shard LDS instances with
  per-shard operation batching;
* :mod:`repro.cluster.repair` -- :class:`RepairScheduler`, rate-limited
  background L2 repairs driven by failure events;
* :mod:`repro.cluster.replicas` -- :class:`ReplicaCoordinator`, the
  replica-group layer: r-way placement via ``HashRing.nodes_for``,
  follower stores fed by kernel-scheduled replication lag, pluggable
  read-routing policies, and deterministic failover on pool loss.

:class:`repro.sim.harness.ClusterSimulation` is the facade wiring all of
the above together on the global simulation kernel.
"""

from repro.cluster.ring import HashRing, RingBalance, derive_seed, stable_hash
from repro.cluster.placement import (
    FollowerChange,
    RebalancePlan,
    ShardMove,
    diff_placements,
    diff_replica_placements,
    placement_of,
    replica_placement_of,
)
from repro.cluster.membership import (
    ClusterNode,
    Membership,
    MembershipEvent,
)
from repro.cluster.router import ObjectRouter, RouterStats, Shard
from repro.cluster.repair import RepairScheduler, RepairStats, RepairTask
from repro.cluster.replicas import (
    FollowerStore,
    LeastLoadedPolicy,
    NearestPolicy,
    PrimaryOnlyPolicy,
    QuorumReadPolicy,
    ReadRoutingPolicy,
    ReplicaCoordinator,
    ReplicaGroup,
    ReplicationConfig,
    RoundRobinPolicy,
    make_read_policy,
)

__all__ = [
    "HashRing",
    "RingBalance",
    "derive_seed",
    "stable_hash",
    "FollowerChange",
    "RebalancePlan",
    "ShardMove",
    "diff_placements",
    "diff_replica_placements",
    "placement_of",
    "replica_placement_of",
    "ClusterNode",
    "Membership",
    "MembershipEvent",
    "ObjectRouter",
    "RouterStats",
    "Shard",
    "RepairScheduler",
    "RepairStats",
    "RepairTask",
    "FollowerStore",
    "LeastLoadedPolicy",
    "NearestPolicy",
    "PrimaryOnlyPolicy",
    "QuorumReadPolicy",
    "ReadRoutingPolicy",
    "ReplicaCoordinator",
    "ReplicaGroup",
    "ReplicationConfig",
    "RoundRobinPolicy",
    "make_read_policy",
]
