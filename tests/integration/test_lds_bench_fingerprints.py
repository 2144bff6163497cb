"""Pins what the four lds_bench workloads (smoke scale, seed 1), the
eight shipped scenarios and two epoch hand-off variants of them (small
key set, fixed seeds) do.

The lds_bench fingerprints, event and message counts were recorded at
commit f5baaa1, before the code layer was rewritten (product-table
GF(2^8), batched stripes, memoised repair inverses): a change underneath
the protocol that alters any coded byte, message or event order moves
these, and must not.

The kernel fingerprint hashes the exact bytes of every event's time, so it
also moves when only the *arithmetic* behind a timestamp changes.  The
fourth column does not: :func:`order_digest` is a CRC over what happened
and in which order -- per epoch every operation's id, kind, tag and value
read, per key the order in which operations responded -- with every
timestamp left out.  A change that re-records a fingerprint has to leave
the digest, the counts, the cost per operation and the audit verdict where
they are.  It happened three times.  When every shard simulator came to be
born on the global clock, an epoch starting after t = 0 computed
``(birth + a) + b`` where it used to compute ``birth + (a + b)``.  When the per-shard queues
became the kernel's one queue, the fingerprint stopped hashing a source
name with each time, and every row moved.  The second change also moved
two other things, each named where it happened: a crash stamped "now"
used to reach a shard whose own clock lagged as a queued event, and now
applies at once (one event fewer per such shard); and
``migration-under-load`` migrates asynchronously, so its drains run on the
kernel (counted) and its copy reads start while the last offloads are
still in flight.  When the fingerprint came to hash each time's eight
``struct`` ``"<d"`` bytes instead of its ``repr``, the first column of
every row moved and nothing else did: both encodings are exact, so the
fingerprint tells the same runs apart.

:func:`timed_digest` is the opposite pin: a CRC over every operation's
invocation and response instants, ``repr`` and all.  It is recorded for
the runs whose every timestamp is already a pure function of the event
order (no migration, no replica failover), so a change to how events are
*queued* -- not to when they happen -- must leave it where it is.
"""

import zlib
from collections import defaultdict
from dataclasses import asdict
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


def timed_digest(history) -> int:
    """CRC32 of every operation's exact invocation and response times."""
    digest = 0
    for op in sorted(history, key=lambda op: (op.object_id, op.op_id)):
        record = (op.object_id, op.op_id, repr(op.invoked_at),
                  repr(op.responded_at))
        digest = zlib.crc32(repr(record).encode(), digest)
    return digest


def pinned(simulation) -> tuple:
    """The row a run is held to: everything but the first field is free
    of timestamps."""
    history = simulation.history()
    completed = sum(op.responded_at is not None for op in history)
    shards = simulation.shards.values()
    return (simulation.kernel.fingerprint,
            simulation.kernel.stats.events_total,
            sum(shard.system.network.costs.messages_sent for shard in shards),
            order_digest(history),
            simulation.communication_cost / completed)


def replica_digest(simulation) -> int:
    """CRC32 of the replica layer's counters, costs and failover log."""
    replicas = simulation.replicas
    stats = {name: sorted(value.items()) if isinstance(value, dict) else value
             for name, value in simulation.stats.as_dict().items()}
    record = (sorted(stats.items()), sorted(asdict(replicas.stats).items()),
              replicas.replication_cost, replicas.read_cost,
              replicas.incomplete_reads(), replicas.failover_log)
    return zlib.crc32(repr(record).encode())


def replica_results_digest(simulation, handles) -> int:
    """CRC32 of what every completed replica read answers through
    ``result(handle)`` and ``operation_cost(handle)``, in handle order."""
    replicas = simulation.replicas
    digest = 0
    for handle in handles:
        result = replicas.result(handle)
        if result is not None:
            record = (handle, result.op_id, result.client_id, result.kind,
                      str(result.tag), result.value, repr(result.invoked_at),
                      repr(result.responded_at),
                      repr(replicas.operation_cost(handle)))
            digest = zlib.crc32(repr(record).encode(), digest)
    return digest


def results_digest(simulation, handles) -> int:
    """CRC32 of what the router answers for every handle, in handle order:
    ``result(handle)`` field by field and ``operation_cost(handle)``."""
    digest = 0
    for handle in handles:
        result = simulation.result(handle)
        fields = None if result is None else (
            result.op_id, result.client_id, result.kind, str(result.tag),
            result.value, repr(result.invoked_at), repr(result.responded_at))
        record = (handle, fields, repr(simulation.operation_cost(handle)))
        digest = zlib.crc32(repr(record).encode(), digest)
    return digest


#: workload -> (kernel fingerprint, events executed, messages sent,
#: order digest, communication cost per completed operation)
RECORDED = {
    "pump_small": (1952724271, 2727, 2676,
                   1539619743, 10.419999999999984),
    "regen_large": (3259546618, 839, 822,
                    1973940145, 6.1979166666666625),
    "write_heavy": (3830248902, 865, 848,
                    1388629248, 14.062499999999991),
    # 4,651 events before: 118 crashes reached lagging shards as events
    "replica_faults": (341866191, 4533, 3455,
                       2581904042, 4.016319444444444),
}

#: run -> timed_digest of its merged history, for the runs without a
#: migration or a failover.
TIMED = {
    "pump_small": 2184389051,
    "regen_large": 1487501191,
    "write_heavy": 161311151,
    "repair-under-load": 3705735438,
    "correlated-pool-failure": 593606023,
    "flash-crowd": 3016142216,
}


#: replicated run -> replica_digest at the end of the run (recorded at
#: 04a7040, before the replica coordinator's read records were merged).
REPLICA_COUNTERS = {
    "replica_faults": 299071734,
    "replica-failover-under-load": 706005416,
    "degraded-reads-during-catch-up": 1174212298,
    "quorum-reads-under-lag": 1606724411,
    "forwarded-writes-during-failover": 1955160074,
    # 3687235881 before a read held by a failover counted at arrival,
    # against the dead primary's pool, instead of at promotion
    "failover-holds-primary-reads": 2941731129,
    "replicated-migration": 2876057431,
}

#: replicated run -> replica_results_digest at the end of the run
#: (recorded while every completed replica read kept its own
#: OperationResult).  The two primary-routed rows serve no replica read.
REPLICA_RESULTS = {
    "replica_faults": 3614238591,
    "replica-failover-under-load": 4176848841,
    "degraded-reads-during-catch-up": 1915102699,
    "quorum-reads-under-lag": 2925142059,
    "forwarded-writes-during-failover": 3653397776,
}

#: workload -> results_digest of the smoke run: every handle, primary- and
#: replica-served alike (recorded while every completed operation kept its
#: own OperationResult beside its history record).
RESULTS = {
    "pump_small": 4187474172,
    "regen_large": 259047792,
    "write_heavy": 4236971628,
    "replica_faults": 3553980355,
}


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_smoke_scale_run_is_unchanged(workload, monkeypatch, handed_out):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from lds_bench import repetition
    from lds_bench.workloads import BY_NAME

    built = []
    handles = []
    original = repetition.build

    def build(*args, **options):  # keeps the simulation run_repetition drops
        built.append(original(*args, **options))
        handles.append(handed_out(built[-1][0]))
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
    if workload in TIMED:
        assert timed_digest(simulation.history()) == TIMED[workload]
    if workload in REPLICA_COUNTERS:
        assert replica_digest(simulation) == REPLICA_COUNTERS[workload]
    [handles] = handles
    assert len(handles) == exact["attempted"]
    if workload in REPLICA_RESULTS:
        assert replica_results_digest(simulation, handles) == \
            REPLICA_RESULTS[workload]
    assert results_digest(simulation, handles) == RESULTS[workload]


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_stepping_drains_like_run_until_idle(workload, monkeypatch):
    # The kernel's pump loop and its single-step API must run the same
    # events: one workload drained each way, under the sanitizer.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from lds_bench.workloads import BY_NAME, build

    spec = BY_NAME[workload].scaled(1 / 40)
    pumped, scenario, _attempted = build(spec, 1, sanitize=True)
    pumped.apply(scenario)
    stepped, scenario, _attempted = build(spec, 1, sanitize=True)
    stepped.apply(scenario, run=False)
    stepped.flush()
    while stepped.kernel.step():
        pass
    assert stepped.kernel.sanitizer.check_leaks() == []
    for simulation in (pumped, stepped):
        assert simulation.kernel.sanitizer.ok
        assert simulation.kernel.sanitizer.events_checked == \
            simulation.kernel.stats.events_total
    assert pinned(stepped) == pinned(pumped) == RECORDED[workload]


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
    # The two epoch hand-offs the shipped runs leave unpinned: primary
    # reads held by a failover freeze (one read, six promotions), and a
    # migration of a replicated key (one).
    "failover-holds-primary-reads": (
        replica_failover_under_load(KEYS, "pool-3", seed=7, operations=80,
                                    duration=500.0, kill_at=200.0),
        dict(seed=7, read_policy="primary",
             replication=ReplicationConfig(r=3, replication_lag=25.0,
                                           failover_detection_delay=60.0))),
    "replicated-migration": (
        migration_under_load(KEYS, "pool-9", seed=11, operations=60,
                             duration=400.0, join_at=150.0),
        dict(seed=11, read_policy="primary",
             replication=ReplicationConfig(r=3, replication_lag=25.0))),
}

#: scenario -> the same row as RECORDED.
RECORDED_SCENARIOS = {
    # 2,700 events before: 4 crashes reached lagging shards as events
    "repair-under-load": (2878849922, 2696, 2570,
                          1713728249, 9.783333333333333),
    # 2,714 events and cost 10.366666666666667 before the asynchronous
    # migration
    "migration-under-load": (1214531999, 2902, 2536,
                             1146416987, 10.283333333333333),
    # 2,508 events before: 8 crashes reached lagging shards as events
    "correlated-pool-failure": (1708909177, 2500, 2373,
                                2848213499, 8.958333333333334),
    "flash-crowd": (130561249, 4954, 4731,
                    1781343314, 9.709090909090909),
    # 2,212 events before: 14 crashes reached lagging shards as events
    "replica-failover-under-load": (1709885734, 2198, 1983,
                                    2814127661, 6.670886075949367),
    # 3,498 events before: 21 crashes reached lagging shards as events
    "degraded-reads-during-catch-up": (4160870984, 3477, 2706,
                                       2611372809, 7.260504201680672),
    "quorum-reads-under-lag": (2366415486, 2857, 2444,
                               3976139252, 7.191666666666666),
    # 3,220 events before: 14 crashes reached lagging shards as events
    "forwarded-writes-during-failover": (2243318270, 3206, 2820,
                                         733725266, 10.1),
    "failover-holds-primary-reads": (2262209148, 3686, 3378,
                                     2837682776, 10.1125),
    "replicated-migration": (1633735620, 2875, 2666,
                             4286840977, 10.966666666666667),
}


def run_scenario(name: str, handed_out) -> tuple:
    """The scenario's drained simulation, and every handle it handed out."""
    scenario, options = SCENARIOS[name]
    pools = POOLS if "replication" in options else POOLS[:2]
    simulation = ClusterSimulation(CONFIG, pools, sanitize=True, **options)
    simulation.ensure_shards(KEYS)
    handles = handed_out(simulation)
    simulation.apply(scenario)
    return simulation, handles


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_shipped_scenario_is_unchanged(name, handed_out):
    simulation, handles = run_scenario(name, handed_out)
    assert simulation.kernel.sanitizer.ok
    assert simulation.audit().ok
    assert pinned(simulation) == RECORDED_SCENARIOS[name]
    if name in REPLICA_COUNTERS:
        assert replica_digest(simulation) == REPLICA_COUNTERS[name]
    if name in REPLICA_RESULTS:
        assert replica_results_digest(simulation, handles) == \
            REPLICA_RESULTS[name]
    if name == "migration-under-load":
        assert simulation.stats.migrations == 4
        assert simulation.incomplete_operations() == 0
    if name == "failover-holds-primary-reads":
        assert simulation.stats.failover_deferrals == 1
    if name == "replicated-migration":
        assert simulation.stats.migrations == 1
    if name in TIMED:
        assert timed_digest(simulation.history()) == TIMED[name]
