"""Replica-read benchmark: read throughput and balance vs replication factor.

Drives the same seeded Zipf workload (fixed write load, read-heavy mix)
through clusters with r = 1, 2, 3 and the round-robin routing mode, and
reports how the replica layer spreads the read traffic: follower share,
per-pool balance (CV of serves), mean read latency (follower stores answer
in store-read time instead of a full two-layer protocol read), and the
replication traffic the extra copies cost at the fixed write load.

There is no paper analogue; this characterises the cluster's scale-out
read path.
"""

from __future__ import annotations

from bench_utils import POOLS, SEED, emit_table, zipf_workload

from repro import (
    ClusterSimulation,
    KeyedWorkloadRunner,
    LDSConfig,
    ReplicationConfig,
)


def _run(r: int):
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    simulation = ClusterSimulation(
        config, POOLS, seed=SEED,
        replication=ReplicationConfig(r=r, replication_lag=25.0),
        read_policy="round-robin",
    )
    report = KeyedWorkloadRunner(simulation).run(zipf_workload(0.25))
    distribution = simulation.read_distribution()
    audit = simulation.audit()
    assert audit.ok, audit.describe()
    replicas = simulation.replicas
    return {
        "read_latency": report.read_latency.mean,
        "distribution": distribution,
        "replication_cost": 0.0 if replicas is None else replicas.total_cost,
    }


def test_bench_replica_reads():
    rows = []
    smoke = {}
    for r in (1, 2, 3):
        run = _run(r)
        distribution = run["distribution"]
        smoke[r] = distribution
        rows.append((
            r,
            f"{run['read_latency']:.1f}",
            f"{distribution.follower_fraction:.2f}",
            f"{distribution.coefficient_of_variation:.2f}",
            f"{distribution.policy_hit_rate:.2f}",
            f"{run['replication_cost']:.0f}",
        ))

    emit_table(
        "replica_reads",
        "read routing vs replication factor (round-robin, fixed write load)",
        ["r", "mean read latency", "follower share", "serve CV",
         "policy hit rate", "replication cost"],
        rows,
    )

    # The balance claims the table makes, asserted so the benchmark doubles
    # as a smoke test: replication actually offloads the primaries.
    assert smoke[1].follower_fraction == 0.0
    assert smoke[2].follower_fraction >= 0.30
    assert smoke[3].follower_fraction >= smoke[2].follower_fraction
    assert smoke[3].coefficient_of_variation <= 0.40
