"""Pins what the four lds_bench workloads (smoke scale, seed 1) and the
eight shipped scenarios (small key set, fixed seeds) do.

The lds_bench fingerprints, event and message counts were recorded at
commit f5baaa1, before the code layer was rewritten (product-table
GF(2^8), batched stripes, memoised repair inverses): a change underneath
the protocol that alters any coded byte, message or event order moves
these, and must not.

The kernel fingerprint hashes ``repr(time)`` of every event, so it also
moves when only the *arithmetic* behind a timestamp changes.  The fourth
column does not: :func:`order_digest` is a CRC over what happened and in
which order -- per epoch every operation's id, kind, tag and value read,
per key the order in which operations responded -- with every timestamp
left out.  A change that re-records a fingerprint has to leave the digest,
the counts, the cost per operation and the audit verdict where they are.
It happened once: when every shard simulator came to be born on the global
clock, an epoch starting after t = 0 (a migration, a failover) computes
``(birth + a) + b`` where it used to compute ``birth + (a + b)``; the five
rows with such an epoch carry their old fingerprint in a comment.
"""

import zlib
from collections import defaultdict
from pathlib import Path

import pytest

from repro import ClusterSimulation, LDSConfig, ReplicationConfig
from repro.consistency.history import READ
from repro.consistency.sessions import split_object_id
from repro.sim import (
    correlated_pool_failure,
    degraded_reads_during_catch_up,
    flash_crowd,
    forwarded_writes_during_failover,
    migration_under_load,
    quorum_reads_under_lag,
    repair_under_load,
    replica_failover_under_load,
)

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def order_digest(history) -> int:
    """CRC32 of the merged history's content and per-key response order."""
    by_object = defaultdict(list)
    responded = defaultdict(list)
    for op in history:
        by_object[op.object_id].append(op)
        if op.responded_at is not None:
            responded[split_object_id(op.object_id)[0]].append(op)
    digest = 0
    for object_id in sorted(by_object):
        for op in sorted(by_object[object_id], key=lambda op: op.op_id):
            record = (object_id, op.op_id, op.kind, str(op.tag),
                      op.value if op.kind == READ else None)
            digest = zlib.crc32(repr(record).encode(), digest)
    for key in sorted(responded):
        order = [op.op_id for op in sorted(
            responded[key], key=lambda op: (op.responded_at, op.op_id))]
        digest = zlib.crc32(repr((key, order)).encode(), digest)
    return digest


def pinned(simulation) -> tuple:
    """The row a run is held to: everything but the first field is free
    of timestamps."""
    history = simulation.history()
    completed = sum(op.responded_at is not None for op in history)
    shards = simulation.router.shards.values()
    return (simulation.kernel.fingerprint,
            simulation.kernel.stats.events_total,
            sum(shard.system.network.costs.messages_sent for shard in shards),
            order_digest(history),
            simulation.communication_cost / completed)


#: workload -> (kernel fingerprint, events executed, messages sent,
#: order digest, communication cost per completed operation)
RECORDED = {
    "pump_small": (3418208950, 2727, 2676,
                   1539619743, 10.419999999999984),
    "regen_large": (3057707594, 839, 822,
                    1973940145, 6.1979166666666625),
    "write_heavy": (1226215423, 865, 848,
                    1388629248, 14.062499999999991),
    # fingerprint 1569939775 before
    "replica_faults": (4025494608, 4651, 3455,
                       2581904042, 4.016319444444444),
}


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_smoke_scale_run_is_unchanged(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from lds_bench import repetition
    from lds_bench.workloads import BY_NAME

    built = []
    original = repetition.build

    def build(*args, **options):  # keeps the simulation run_repetition drops
        built.append(original(*args, **options))
        return built[-1]

    monkeypatch.setattr(repetition, "build", build)
    exact = repetition.run_repetition(
        BY_NAME[workload].scaled(1 / 40), 1, "timed")["exact"]
    assert exact["audit_ok"] and not exact["incomplete"]
    [(simulation, _scenario, _attempted)] = built
    row = pinned(simulation)
    assert row[:3] + row[4:] == (
        exact["fingerprint"], exact["sim.events"], exact["net.messages_sent"],
        exact["comm_cost_per_op"])
    assert row == RECORDED[workload]


# -- the eight shipped scenarios ---------------------------------------------------

CONFIG = LDSConfig(n1=3, n2=4, f1=1, f2=1)
KEYS = [f"obj-{i}" for i in range(12)]
POOLS = [f"pool-{i}" for i in range(4)]
PLAIN = dict(seed=11, repair_min_interval=10.0)
FAILOVER = dict(r=3, replication_lag=25.0, failover_detection_delay=12.0)

#: name -> (scenario, ClusterSimulation options); the unreplicated rows run
#: on two pools.  Every shard is built before the run, so only a migration
#: or a failover starts an epoch after t = 0.
SCENARIOS = {
    "repair-under-load": (
        repair_under_load(KEYS, "pool-0/l2-0", seed=11, operations=60,
                          duration=400.0, fail_at=120.0),
        PLAIN),
    "migration-under-load": (
        migration_under_load(KEYS, "pool-9", seed=11, operations=60,
                             duration=400.0, join_at=150.0),
        PLAIN),
    "correlated-pool-failure": (
        correlated_pool_failure(KEYS, "pool-0", seed=11, operations=60,
                                duration=400.0, fail_at=120.0, stagger=5.0),
        PLAIN),
    "flash-crowd": (
        flash_crowd(KEYS, seed=11, operations=50, crowd_operations=60,
                    shift_at=250.0, duration=400.0, latency_scale=1.5),
        dict(PLAIN, writers_per_shard=2, readers_per_shard=2)),
    "replica-failover-under-load": (
        replica_failover_under_load(KEYS, "pool-0", seed=7, operations=80,
                                    duration=500.0, kill_at=200.0),
        dict(seed=7, read_policy="round-robin",
             replication=ReplicationConfig(**FAILOVER))),
    "degraded-reads-during-catch-up": (
        degraded_reads_during_catch_up(KEYS, "pool-1", seed=3, operations=60,
                                       read_operations=60, duration=500.0,
                                       kill_at=200.0),
        dict(seed=3, read_policy="least-loaded",
             writers_per_shard=2, readers_per_shard=2,
             replication=ReplicationConfig(r=3, replication_lag=30.0,
                                           failover_detection_delay=20.0,
                                           catch_up_per_record=2.0))),
    "quorum-reads-under-lag": (
        quorum_reads_under_lag(KEYS, seed=7, operations=60,
                               burst_operations=60, duration=500.0,
                               burst_at=200.0),
        dict(seed=7, read_policy="quorum",
             writers_per_shard=2, readers_per_shard=2,
             replication=ReplicationConfig(r=3, replication_lag=400.0,
                                           read_quorum=2))),
    "forwarded-writes-during-failover": (
        forwarded_writes_during_failover(KEYS, "pool-0", seed=5,
                                         operations=80, duration=500.0,
                                         kill_at=200.0),
        dict(seed=5, read_policy="round-robin",
             replication=ReplicationConfig(write_ingress="nearest",
                                           **FAILOVER))),
}

#: scenario -> the same row as RECORDED.
RECORDED_SCENARIOS = {
    "repair-under-load": (2294967946, 2700, 2570,
                          1713728249, 9.783333333333333),
    # fingerprint 1432714149 before
    "migration-under-load": (1177596956, 2714, 2536,
                             1146416987, 10.366666666666667),
    "correlated-pool-failure": (2190895864, 2508, 2373,
                                2848213499, 8.958333333333334),
    "flash-crowd": (3637184724, 4954, 4731,
                    1781343314, 9.709090909090909),
    # fingerprint 2380529788 before
    "replica-failover-under-load": (4249336568, 2212, 1983,
                                    2814127661, 6.670886075949367),
    # fingerprint 2895632883 before
    "degraded-reads-during-catch-up": (2720841203, 3498, 2706,
                                       2611372809, 7.260504201680672),
    "quorum-reads-under-lag": (3388774046, 2857, 2444,
                               3976139252, 7.191666666666666),
    # fingerprint 2443290197 before
    "forwarded-writes-during-failover": (2774484673, 3220, 2820,
                                         733725266, 10.1),
}


def run_scenario(name: str) -> ClusterSimulation:
    scenario, options = SCENARIOS[name]
    pools = POOLS if "replication" in options else POOLS[:2]
    simulation = ClusterSimulation(CONFIG, pools, **options)
    simulation.ensure_shards(KEYS)
    simulation.apply(scenario)
    return simulation


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_shipped_scenario_is_unchanged(name):
    simulation = run_scenario(name)
    assert simulation.audit().ok
    assert pinned(simulation) == RECORDED_SCENARIOS[name]
