"""The four lds_bench workloads and their seeded input generation.

Every workload runs on ``LDSConfig(n1=5, n2=7, f1=1, f2=1)`` -- k=3, d=5,
MBR, 12-symbol stripes: the paper's shape, not the k=1 shape of the old
pytest benches.  A workload is a fixed *operation count*, so simulated
time, message counts and kernel fingerprints repeat exactly under a fixed
seed; the runner repeats the fixed workload for ``--seconds``.  Arrivals
are an open-loop schedule in simulated time (a batch in host time).

Inputs are generated here, from ``--seed`` alone; the program under test
only ever receives the finished ``Scenario`` / ``Workload`` objects.
Generation is *stratified*: the number of writes, the number of reads and
the number of operations each popularity rank receives are fixed by the
spec (largest-remainder apportionment of the Zipf weights), and the seed
decides which key holds which rank, every arrival time, client and value.
Different seeds therefore give different schedules and fingerprints but
the same amount of each kind of work, which keeps run-to-run spread a
property of the program and the host, not of the input draw.  Objects
start out holding a seeded ``value_bytes``-sized initial value (encoded
into L2 when the shard is built, i.e. during set-up), so a read of a
not-yet-written key regenerates a full-size element like any other read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

#: Simulated time by which a trailing read follows its write: after the
#: write's value has reached the L1 servers' temporary storage (about two
#: message delays) and well before the write-to-L2 round trip garbage
#: collects it, so the read is served from L1 without a regeneration.
READ_TRAILS_WRITE_BY = (2.0, 8.0)


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    pools: int
    keys: int
    #: Client operations per repetition.
    ops: int
    write_fraction: float
    value_bytes: int
    #: Zipf exponent of key popularity; 0 = uniform.
    zipf_s: float
    #: Writers and readers per shard.
    clients: int
    #: Minimum simulated time between two operations of one client.
    spacing: float
    #: Arrival window in simulated time (an open-loop schedule; a hot
    #: client's ``spacing`` ratchet may run past it).
    window: float
    #: r=3 replica groups, quorum reads, one pool kill and one L2 crash.
    replicated_with_faults: bool = False
    #: Every read arrives READ_TRAILS_WRITE_BY after a write to its key.
    reads_trail_writes: bool = False

    def scaled(self, factor: float) -> "WorkloadSpec":
        """The same traffic mix and arrival rate with ``factor`` times the
        operations (the smoke test runs every workload at 1/40), but at
        least eight, so that every mix keeps a write and a read."""
        ops = max(8, round(self.ops * factor))
        return replace(self, ops=ops, window=self.window * ops / self.ops)


#: Sized so that one repetition takes 3-4 s of ``run_s`` on the 2-core
#: sandbox (the driver's cap on total time allows ~35 s per run, and a run
#: wants four or more repetitions).  The issue sized them at 2000 / 120 /
#: 320 / 24000 operations with 512-byte values in both code-heavy workloads
#: (6-10 s each).  Here the two event-heavy workloads have fewer operations
#: and the two code-heavy ones smaller values instead -- 11 and 22 stripes
#: still put >= 85% of the wall time in gf+codes, and their latency medians
#: need every read they can get.
SPECS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="pump_small",
        why=("8 pools, 64 keys, 1000 ops, 40% writes of 8-byte (one-stripe) "
             "values, Zipf 1.2: event bookkeeping (sim, net, core) does most "
             "of the work and the code layer the least it can"),
        pools=8, keys=64, ops=1000, write_fraction=0.4, value_bytes=8,
        zipf_s=1.2, clients=1, spacing=60.0, window=1100.0,
    ),
    WorkloadSpec(
        name="regen_large",
        why=("2 pools, 8 keys, 120 ops, 10% writes of 128-byte (11-stripe) "
             "values, sparse uniform arrivals: every read regenerates from L2 "
             "at all n1 servers, so gf+codes repair works and the pump idles"),
        pools=2, keys=8, ops=120, write_fraction=0.1, value_bytes=128,
        zipf_s=0.0, clients=1, spacing=60.0, window=9000.0,
    ),
    WorkloadSpec(
        name="write_heavy",
        why=("2 pools, 8 keys, 320 ops, 80% overlapping writes of 256-byte "
             "(22-stripe) values, 3 clients per shard, reads trail writes: "
             "the code layer the other way round (encode, write-to-L2, GC)"),
        pools=2, keys=8, ops=320, write_fraction=0.8, value_bytes=256,
        zipf_s=1.2, clients=3, spacing=40.0, window=960.0,
        reads_trail_writes=True,
    ),
    WorkloadSpec(
        name="replica_faults",
        why=("5 pools, 48 keys, 9600 ops, 10% writes, r=3 quorum reads, a "
             "pool kill and an L2 crash mid-run: router, replicas, failover, "
             "repair and auditor work; every operation must still complete"),
        pools=5, keys=48, ops=9600, write_fraction=0.1, value_bytes=8,
        zipf_s=1.1, clients=1, spacing=60.0, window=38400.0,
        replicated_with_faults=True,
    ),
)
BY_NAME: Dict[str, WorkloadSpec] = {spec.name: spec for spec in SPECS}


def key_names(spec: WorkloadSpec) -> List[str]:
    return [f"obj-{index}" for index in range(spec.keys)]


def apportion(total: int, weights: List[float]) -> List[int]:
    """Split ``total`` into integer shares proportional to ``weights``
    (largest remainder; ties go to the earlier rank)."""
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    shares = [int(value) for value in exact]
    by_remainder = sorted(range(len(weights)),
                          key=lambda rank: (shares[rank] - exact[rank], rank))
    for rank in by_remainder[:total - sum(shares)]:
        shares[rank] += 1
    return shares


def generate_inputs(spec: WorkloadSpec, seed: int):
    """``(operations, initial_value)`` for one seed: the operations as
    ``(kind, at, client, key, value)`` sorted by arrival time (``value`` is
    None for reads), and the value every object holds before its first
    write."""
    rng = random.Random(seed)
    keys = key_names(spec)
    rng.shuffle(keys)  # keys[rank]: the seed decides which key is hot
    weights = [1.0 / (rank + 1) ** spec.zipf_s for rank in range(spec.keys)]
    writes = round(spec.ops * spec.write_fraction)
    operations = []
    write_times: Dict[str, List[float]] = {key: [] for key in keys}
    for kind, count in (("write", writes), ("read", spec.ops - writes)):
        draws = []
        for rank, share in enumerate(apportion(count, weights)):
            key = keys[rank]
            for _ in range(share):
                at = rng.uniform(0.0, spec.window)
                if kind == "read" and spec.reads_trail_writes \
                        and write_times[key]:
                    at = rng.choice(write_times[key]) \
                        + rng.uniform(*READ_TRAILS_WRITE_BY)
                draws.append((at, key))
        draws.sort()
        # One outstanding operation per (key, kind, client): each goes to
        # the key's client that has been idle longest, pushed past that
        # client's previous operation by ``spacing`` if need be.
        next_free: Dict[Tuple[str, int], float] = {}
        for at, key in draws:
            client = min(range(spec.clients),
                         key=lambda index: next_free.get((key, index), 0.0))
            at = max(at, next_free.get((key, client), 0.0))
            next_free[(key, client)] = at + spec.spacing
            value = None
            if kind == "write":
                value = rng.randbytes(spec.value_bytes)
                write_times[key].append(at)
            operations.append((kind, at, client, key, value))
    operations.sort(key=lambda operation: operation[1])
    return operations, rng.randbytes(spec.value_bytes)


def build(spec: WorkloadSpec, seed: int, **simulation_options):
    """Generate the inputs and construct the simulation for one repetition.

    Returns ``(simulation, scenario, attempted)`` with every shard built.
    ``repro`` is imported here, not at module level, so the caller's
    set-up timer covers the import.
    """
    from repro import (ClusterSimulation, LDSConfig, ReplicationConfig,
                       Scenario, ScenarioAction, Workload)
    from repro.sim.scenario import FAIL_NODE, KILL_POOL, WORKLOAD_PHASE
    from repro.workloads import ScheduledOperation

    operations, initial_value = generate_inputs(spec, seed)
    load = Workload(description=f"lds_bench {spec.name} seed={seed}")
    for kind, at, client, key, value in operations:
        load.add(ScheduledOperation(kind=kind, at=at, client_index=client,
                                    key=key, value=value))
    actions = [ScenarioAction(at=0.0, kind=WORKLOAD_PHASE, workload=load,
                              label=spec.name)]
    if spec.replicated_with_faults:
        simulation_options.update(
            replication=ReplicationConfig(r=3, replication_lag=500.0,
                                          read_quorum=2),
            read_policy="quorum")
        actions.append(ScenarioAction(at=spec.window / 3, kind=KILL_POOL,
                                      target="pool-1"))
        actions.append(ScenarioAction(at=spec.window / 2, kind=FAIL_NODE,
                                      target="pool-2/l2-0"))
    simulation = ClusterSimulation(
        LDSConfig(n1=5, n2=7, f1=1, f2=1, initial_value=initial_value),
        [f"pool-{index}" for index in range(spec.pools)],
        seed=seed, writers_per_shard=spec.clients,
        readers_per_shard=spec.clients, **simulation_options)
    simulation.ensure_shards(key_names(spec))
    return simulation, Scenario(name=spec.name, actions=actions), len(load)
