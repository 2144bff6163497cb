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
  follower stores fed by kernel-scheduled replication lag, three
  read-routing modes (``primary``, ``round-robin``, ``quorum``), and
  deterministic failover on pool loss;
* :mod:`repro.cluster.read_policy` -- :class:`ReplicationConfig` and the
  mode names, kept apart from the coordinator so a run without
  replication never loads it.

:class:`repro.sim.harness.ClusterSimulation` is the facade wiring all of
the above together on the global simulation kernel.
"""

from repro import _lazy_exports

_EXPORTS = {
    "HashRing": "ring",
    "RingBalance": "ring",
    "derive_seed": "ring",
    "stable_hash": "ring",
    "FollowerChange": "placement",
    "RebalancePlan": "placement",
    "ShardMove": "placement",
    "diff_placements": "placement",
    "diff_replica_placements": "placement",
    "placement_of": "placement",
    "ClusterNode": "membership",
    "Membership": "membership",
    "MembershipEvent": "membership",
    "ObjectRouter": "router",
    "RouterStats": "router",
    "Shard": "router",
    "RepairScheduler": "repair",
    "RepairStats": "repair",
    "RepairTask": "repair",
    "FollowerStore": "replicas",
    "ReplicaCoordinator": "replicas",
    "ReplicaGroup": "replicas",
    "ReplicationConfig": "read_policy",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
