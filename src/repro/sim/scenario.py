"""Declarative scenarios: timed scripts driving a cluster on the global clock.

A :class:`Scenario` is a named list of :class:`ScenarioAction` records --
crash/recover a node, join/leave a pool, shift the latency regime, start a
workload phase -- each pinned to a global virtual time.  The
:class:`ScenarioEngine` schedules every action as a kernel event on a
:class:`~repro.sim.harness.ClusterSimulation`, so faults, migrations and
load changes land *between* foreground protocol events exactly where the
timeline puts them, instead of between whole run-to-idle passes.

Eight scenarios ship with the engine, covering the cross-shard phenomena
a per-shard run-to-idle loop could never exhibit:

* :func:`repair_under_load` -- a back-end node dies mid-workload and the
  rate-limited background repairs compete with foreground Zipf traffic;
* :func:`migration_under_load` -- a new pool joins mid-workload and shard
  migrations overlap live writes;
* :func:`correlated_pool_failure` -- one pool loses an edge (L1) node and a
  back-end (L2) node almost simultaneously;
* :func:`flash_crowd` -- key popularity snaps to a heavier Zipf skew while
  the latency regime degrades, modelling a viral-object traffic spike;
* :func:`replica_failover_under_load` -- a whole pool dies mid-workload
  and its replica groups promote followers (needs ``r >= 2``);
* :func:`degraded_reads_during_catch_up` -- a read burst lands inside the
  failover window and is served degraded by follower stores;
* :func:`quorum_reads_under_lag` -- a read burst under heavy replication
  lag and a saturating network, resolved by quorum merges that observe
  (and read-repair) stale stores (needs the ``quorum`` read policy);
* :func:`forwarded_writes_during_failover` -- writes keep arriving at
  follower pools through a pool kill and are forwarded to the (frozen,
  then promoted) primary (needs ``write_ingress="nearest"``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as dc_replace
from typing import List, Optional, Tuple

from repro.cluster.membership import FAILED
from repro.cluster.ring import derive_seed
from repro.workloads.generator import Workload, WorkloadGenerator

#: Action kinds.
FAIL_NODE = "fail-node"
RECOVER_NODE = "recover-node"
JOIN_POOL = "join-pool"
LEAVE_POOL = "leave-pool"
#: Crash every alive node of a pool at once (correlated pool loss); with
#: replica groups this is the action that triggers primary failover.
KILL_POOL = "kill-pool"
LATENCY_SHIFT = "latency-shift"
WORKLOAD_PHASE = "workload-phase"

_KINDS = (FAIL_NODE, RECOVER_NODE, JOIN_POOL, LEAVE_POOL, KILL_POOL,
          LATENCY_SHIFT, WORKLOAD_PHASE)


@dataclass(frozen=True)
class ScenarioAction:
    """One timed action of a scenario script."""

    at: float
    kind: str
    #: Node id (fail/recover) or pool name (join/leave); unused otherwise.
    target: str = ""
    #: New latency multiplier for LATENCY_SHIFT.
    scale: float = 1.0
    #: Ring weight for JOIN_POOL.
    weight: float = 1.0
    #: The workload whose arrivals start at ``at`` for WORKLOAD_PHASE
    #: (operation times are relative to the phase start).
    workload: Optional[Workload] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown scenario action kind {self.kind!r}")
        if not 0 <= self.at < math.inf:
            raise ValueError("a scenario action's time must be finite and "
                             "not negative")
        if self.kind == LATENCY_SHIFT and not 0 < self.scale < math.inf:
            raise ValueError("the latency scale must be positive and finite")
        if self.kind == JOIN_POOL and not 0 < self.weight < math.inf:
            raise ValueError("a pool's weight must be positive and finite")
        if self.kind == WORKLOAD_PHASE and self.workload is None:
            raise ValueError("a workload phase needs a workload")
        if self.kind in (FAIL_NODE, RECOVER_NODE, JOIN_POOL, LEAVE_POOL,
                         KILL_POOL) and not self.target:
            raise ValueError(f"action {self.kind!r} needs a target")


@dataclass
class Scenario:
    """A named, ordered script of timed actions."""

    name: str
    description: str = ""
    actions: List[ScenarioAction] = field(default_factory=list)

    def add(self, action: ScenarioAction) -> "Scenario":
        self.actions.append(action)
        return self

    def sorted_actions(self) -> List[ScenarioAction]:
        """Actions by time; equal times keep script order (stable sort)."""
        return sorted(self.actions, key=lambda action: action.at)

    @property
    def duration(self) -> float:
        return max((action.at for action in self.actions), default=0.0)


class ScenarioEngine:
    """Schedules a scenario's actions as kernel events on a simulation."""

    def __init__(self, simulation) -> None:
        self.simulation = simulation
        #: (global_time, kind, detail) for every applied action.
        self.log: List[Tuple[float, str, str]] = []

    def schedule(self, scenario: Scenario) -> None:
        """Register every action with the global kernel (does not run it).

        Workload phases are validated against the simulation's per-shard
        client counts *now*, so an undersized simulation fails here with a
        named error instead of deep inside a future arrival event.
        """
        kernel = self.simulation.kernel
        for action in scenario.sorted_actions():
            if action.kind == WORKLOAD_PHASE:
                self.simulation.check_workload_clients(action.workload)
            at = max(action.at, kernel.now)
            kernel.schedule_at(at, lambda action=action: self._apply(action))

    def _apply(self, action: ScenarioAction) -> None:
        simulation = self.simulation
        now = simulation.kernel.now
        detail = action.label or action.target
        if action.kind == FAIL_NODE:
            simulation.fail_node(action.target, time=now)
        elif action.kind == RECOVER_NODE:
            # The repair scheduler usually beats scripted recovery; only
            # flip nodes that are actually still down.
            node = simulation.membership.node(action.target)
            if node.status == FAILED:
                simulation.membership.recover(action.target, time=now)
            else:
                detail = f"{detail} (already {node.status})"
        elif action.kind == JOIN_POOL:
            plan = simulation.add_pool(action.target, time=now, weight=action.weight)
            detail = f"{detail} ({len(plan.moves)} shards migrated)"
        elif action.kind == LEAVE_POOL:
            plan = simulation.remove_pool(action.target, time=now)
            detail = f"{detail} ({len(plan.moves)} shards migrated)"
        elif action.kind == KILL_POOL:
            events = simulation.fail_pool(action.target, time=now)
            detail = f"{detail} ({len(events)} nodes down)"
        elif action.kind == LATENCY_SHIFT:
            simulation.set_latency_scale(action.scale)
            detail = f"{detail or 'scale'} -> {action.scale:g}x"
        elif action.kind == WORKLOAD_PHASE:
            simulation.add_workload(action.workload, start=now)
            detail = (f"{detail or action.workload.description} "
                      f"({len(action.workload)} ops)")
        self.log.append((now, action.kind, detail))
        telemetry = getattr(simulation, "telemetry", None)
        if telemetry is not None and telemetry.trace is not None:
            telemetry.trace.instant(f"{action.kind}: {detail}", now)


# -- shipped scenarios ------------------------------------------------------------


def repair_under_load(keys, victim_node: str, *, seed: int = 0,
                      operations: int = 160, write_fraction: float = 0.4,
                      duration: float = 600.0, s: float = 1.2,
                      fail_at: float = 120.0,
                      client_spacing: float = 60.0) -> Scenario:
    """Background repair slots competing with foreground Zipf load."""
    generator = WorkloadGenerator(seed=derive_seed(seed, "repair-under-load"),
                                  client_spacing=client_spacing)
    load = generator.zipf_keyed(keys, operations, write_fraction, duration, s=s)
    return Scenario(
        name="repair-under-load",
        description=(f"zipf(s={s}) foreground load; {victim_node} fails at "
                     f"t={fail_at:g} and is repaired in the background"),
        actions=[
            ScenarioAction(at=0.0, kind=WORKLOAD_PHASE, workload=load,
                           label="zipf foreground load"),
            ScenarioAction(at=fail_at, kind=FAIL_NODE, target=victim_node,
                           label=f"crash {victim_node}"),
        ],
    )


def migration_under_load(keys, new_pool: str, *, seed: int = 0,
                         operations: int = 160, write_fraction: float = 0.4,
                         duration: float = 600.0, join_at: float = 200.0,
                         weight: float = 1.0,
                         client_spacing: float = 60.0) -> Scenario:
    """A pool joins mid-workload; shard migrations overlap live writes."""
    generator = WorkloadGenerator(seed=derive_seed(seed, "migration-under-load"),
                                  client_spacing=client_spacing)
    load = generator.keyed_random(keys, operations, write_fraction, duration)
    return Scenario(
        name="migration-under-load",
        description=(f"uniform keyed load; pool {new_pool!r} joins at "
                     f"t={join_at:g} and shards migrate onto it"),
        actions=[
            ScenarioAction(at=0.0, kind=WORKLOAD_PHASE, workload=load,
                           label="uniform foreground load"),
            ScenarioAction(at=join_at, kind=JOIN_POOL, target=new_pool,
                           weight=weight, label=f"join {new_pool}"),
        ],
    )


def correlated_pool_failure(keys, pool: str, *, seed: int = 0,
                            operations: int = 160, write_fraction: float = 0.4,
                            duration: float = 600.0, fail_at: float = 150.0,
                            stagger: float = 5.0,
                            client_spacing: float = 60.0) -> Scenario:
    """One pool loses an edge node and a back-end node within ``stagger``.

    Both failures stay inside the algorithm's tolerance (f1, f2 >= 1): the
    L1 crash is absorbed natively while the L2 crash triggers background
    regeneration for every shard on the pool.
    """
    generator = WorkloadGenerator(seed=derive_seed(seed, "correlated-failure"),
                                  client_spacing=client_spacing)
    load = generator.zipf_keyed(keys, operations, write_fraction, duration, s=1.0)
    return Scenario(
        name="correlated-pool-failure",
        description=(f"pool {pool!r} loses l2-0 at t={fail_at:g} and l1-0 "
                     f"{stagger:g} time units later"),
        actions=[
            ScenarioAction(at=0.0, kind=WORKLOAD_PHASE, workload=load,
                           label="zipf foreground load"),
            ScenarioAction(at=fail_at, kind=FAIL_NODE, target=f"{pool}/l2-0",
                           label=f"crash {pool}/l2-0"),
            ScenarioAction(at=fail_at + stagger, kind=FAIL_NODE,
                           target=f"{pool}/l1-0", label=f"crash {pool}/l1-0"),
        ],
    )


def flash_crowd(keys, *, seed: int = 0, operations: int = 120,
                crowd_operations: int = 160, write_fraction: float = 0.3,
                duration: float = 400.0, shift_at: float = 250.0,
                s_before: float = 0.8, s_after: float = 1.6,
                latency_scale: float = 1.5,
                client_spacing: float = 60.0) -> Scenario:
    """Key popularity snaps to a heavy Zipf skew and latency degrades.

    The crowd is a *second* client population (per-shard client index 1),
    because on the global clock its operations overlap the tail of the calm
    phase and a single client may only have one operation outstanding --
    run this scenario on a simulation with ``writers_per_shard`` and
    ``readers_per_shard`` of at least 2.  The crowd's spacing is stretched
    by ``latency_scale`` so the workload stays well-formed in the degraded
    latency regime it itself creates.
    """
    generator = WorkloadGenerator(seed=derive_seed(seed, "flash-crowd"),
                                  client_spacing=client_spacing)
    calm = generator.zipf_keyed(keys, operations, write_fraction, shift_at,
                                s=s_before)
    crowd_generator = WorkloadGenerator(
        seed=derive_seed(seed, "flash-crowd", "crowd"),
        client_spacing=client_spacing * latency_scale,
    )
    crowd_raw = crowd_generator.zipf_keyed(
        keys, crowd_operations, write_fraction, duration - shift_at, s=s_after,
    )
    crowd = Workload(description=crowd_raw.description + " (crowd clients)")
    for operation in crowd_raw.operations:
        # The crowd is a distinct client population: shift it onto the
        # second per-shard client slot and give it its own explicit session
        # identity so the session auditor tracks calm and crowd clients as
        # separate logical sessions.
        crowd.add(dc_replace(operation, client_index=operation.client_index + 1,
                             session=f"crowd-{operation.client_index + 1}"))
    return Scenario(
        name="flash-crowd",
        description=(f"zipf skew shifts s={s_before:g} -> s={s_after:g} at "
                     f"t={shift_at:g} with a {latency_scale:g}x latency "
                     f"regime shift"),
        actions=[
            ScenarioAction(at=0.0, kind=WORKLOAD_PHASE, workload=calm,
                           label=f"calm zipf(s={s_before:g}) load"),
            ScenarioAction(at=shift_at, kind=LATENCY_SHIFT,
                           scale=latency_scale, label="network saturates"),
            ScenarioAction(at=shift_at, kind=WORKLOAD_PHASE, workload=crowd,
                           label=f"flash crowd zipf(s={s_after:g})"),
        ],
    )


def replica_failover_under_load(keys, victim_pool: str, *, seed: int = 0,
                                operations: int = 200,
                                write_fraction: float = 0.35,
                                duration: float = 800.0,
                                kill_at: float = 300.0,
                                client_spacing: float = 60.0) -> Scenario:
    """A whole pool dies mid-workload; its replica groups fail over.

    Run on an ``r >= 2`` simulation: groups whose primary lived on the
    victim freeze primary traffic, serve degraded follower reads, promote
    a caught-up follower, and flush the frozen operations into the new
    epoch -- all while the rest of the cluster keeps serving.  Groups that
    only had a *follower* there re-provision it elsewhere.  The run must
    audit clean (atomicity at every primary epoch plus all four session
    guarantees), because catch-up preserves every acknowledged write.
    """
    generator = WorkloadGenerator(seed=derive_seed(seed, "replica-failover"),
                                  client_spacing=client_spacing)
    load = generator.zipf_keyed(keys, operations, write_fraction, duration,
                                s=1.1)
    return Scenario(
        name="replica-failover-under-load",
        description=(f"zipf foreground load; pool {victim_pool!r} dies at "
                     f"t={kill_at:g}; its primaries fail over to followers"),
        actions=[
            ScenarioAction(at=0.0, kind=WORKLOAD_PHASE, workload=load,
                           label="zipf foreground load"),
            ScenarioAction(at=kill_at, kind=KILL_POOL, target=victim_pool,
                           label=f"kill {victim_pool}"),
        ],
    )


def degraded_reads_during_catch_up(keys, victim_pool: str, *, seed: int = 0,
                                   operations: int = 120,
                                   read_operations: int = 120,
                                   write_fraction: float = 0.5,
                                   duration: float = 700.0,
                                   kill_at: float = 300.0,
                                   burst_duration: float = 150.0,
                                   client_spacing: float = 60.0) -> Scenario:
    """A read burst lands exactly in the failover window.

    Phase one builds replicated state with a write-heavy load; the victim
    pool then dies and a *read-heavy* burst arrives while its groups are
    still detecting, catching up and promoting.  Follower stores keep
    serving throughout (the degraded-reads window); only reads pinned to
    the primary -- by policy or by their session floor -- wait in the
    router's frozen queue until promotion.  Compare ``RouterStats.failover_deferrals`` against
    ``follower_reads`` to see the window in numbers.

    Like the flash-crowd scenario, the burst is a *second* client
    population (per-shard client index 1) with its own ``burst-*``
    sessions, because its operations overlap the build-up tail and a
    single client may only have one operation outstanding -- run this on
    a simulation with ``writers_per_shard`` and ``readers_per_shard`` of
    at least 2.
    """
    generator = WorkloadGenerator(seed=derive_seed(seed, "degraded-reads"),
                                  client_spacing=client_spacing)
    build = generator.zipf_keyed(keys, operations, write_fraction, kill_at,
                                 s=1.0)
    burst_generator = WorkloadGenerator(
        seed=derive_seed(seed, "degraded-reads", "burst"),
        client_spacing=client_spacing,
    )
    burst_raw = burst_generator.zipf_keyed(keys, read_operations, 0.1,
                                           burst_duration, s=1.2)
    burst = Workload(description=burst_raw.description + " (burst clients)")
    for operation in burst_raw.operations:
        burst.add(dc_replace(operation, client_index=operation.client_index + 1,
                             session=f"burst-{operation.client_index + 1}"))
    return Scenario(
        name="degraded-reads-during-catch-up",
        description=(f"write-heavy build-up; pool {victim_pool!r} dies at "
                     f"t={kill_at:g} under a read burst served degraded by "
                     f"followers"),
        actions=[
            ScenarioAction(at=0.0, kind=WORKLOAD_PHASE, workload=build,
                           label="write-heavy build-up"),
            ScenarioAction(at=kill_at, kind=KILL_POOL, target=victim_pool,
                           label=f"kill {victim_pool}"),
            ScenarioAction(at=kill_at, kind=WORKLOAD_PHASE, workload=burst,
                           label="read burst during catch-up"),
        ],
    )


def quorum_reads_under_lag(keys, *, seed: int = 0, operations: int = 140,
                           burst_operations: int = 140,
                           write_fraction: float = 0.5,
                           duration: float = 800.0,
                           burst_at: float = 350.0,
                           latency_scale: float = 1.4,
                           client_spacing: float = 60.0) -> Scenario:
    """A read burst lands while followers lag far behind the primaries.

    Phase one is a write-heavy build-up, so by ``burst_at`` every group
    has a replication log its followers have not caught up on (run with a
    ``replication_lag`` comparable to the scenario duration).  The
    network then saturates and a read-heavy burst arrives: under the
    ``quorum`` read policy each read queries ``read_quorum`` stores and
    merges -- follower-only quorum windows observe genuinely stale
    stores, which is exactly where **read repair** (or, with
    ``read_repair=False``, a session-guard fallback to the primary) has
    to step in.  Compare ``RouterStats.read_repairs`` and
    ``session_fallbacks`` across the two settings to see repair working.

    Like the flash-crowd scenario, the burst is a *second* client
    population (per-shard client index 1) with its own ``burst-*``
    sessions -- run on a simulation with ``writers_per_shard`` and
    ``readers_per_shard`` of at least 2.  The burst keeps a small write
    fraction so its sessions carry read-your-writes floors of their own.
    """
    generator = WorkloadGenerator(seed=derive_seed(seed, "quorum-under-lag"),
                                  client_spacing=client_spacing)
    build = generator.zipf_keyed(keys, operations, write_fraction, burst_at,
                                 s=1.1)
    burst_generator = WorkloadGenerator(
        seed=derive_seed(seed, "quorum-under-lag", "burst"),
        client_spacing=client_spacing * latency_scale,
    )
    burst_raw = burst_generator.zipf_keyed(keys, burst_operations, 0.2,
                                           duration - burst_at, s=1.2)
    burst = Workload(description=burst_raw.description + " (burst clients)")
    for operation in burst_raw.operations:
        burst.add(dc_replace(operation, client_index=operation.client_index + 1,
                             session=f"burst-{operation.client_index + 1}"))
    return Scenario(
        name="quorum-reads-under-lag",
        description=(f"write-heavy build-up; at t={burst_at:g} the network "
                     f"degrades {latency_scale:g}x and a read burst is "
                     f"resolved by quorum merges over lagging stores"),
        actions=[
            ScenarioAction(at=0.0, kind=WORKLOAD_PHASE, workload=build,
                           label="write-heavy build-up"),
            ScenarioAction(at=burst_at, kind=LATENCY_SHIFT,
                           scale=latency_scale, label="network saturates"),
            ScenarioAction(at=burst_at, kind=WORKLOAD_PHASE, workload=burst,
                           label="read burst over lagging stores"),
        ],
    )


def forwarded_writes_during_failover(keys, victim_pool: str, *,
                                     seed: int = 0, operations: int = 180,
                                     write_fraction: float = 0.5,
                                     duration: float = 800.0,
                                     kill_at: float = 300.0,
                                     client_spacing: float = 60.0) -> Scenario:
    """Writes keep arriving at follower pools through a pool kill.

    Run on an ``r >= 2`` simulation with ``write_ingress="nearest"``:
    every write arrives at the client's nearest replica pool and is
    forwarded to the primary when that pool is a follower.  When the
    victim pool dies mid-workload its groups freeze and promote -- and
    the writes that keep arriving *during the freeze* are forwarded into
    the frozen primary slot, ride the pending queue into the promoted
    epoch and complete there, so no client ever needs to learn who the
    new primary is.  ``RouterStats.forwarded_writes`` counts the hops;
    the run must audit clean because forwarding preserves per-session
    write order (one operation in flight per client).
    """
    generator = WorkloadGenerator(seed=derive_seed(seed, "forwarded-writes"),
                                  client_spacing=client_spacing)
    load = generator.zipf_keyed(keys, operations, write_fraction, duration,
                                s=1.1)
    return Scenario(
        name="forwarded-writes-during-failover",
        description=(f"nearest-ingress writes forwarded to primaries; pool "
                     f"{victim_pool!r} dies at t={kill_at:g} and forwarded "
                     f"writes ride the freeze into the promoted epochs"),
        actions=[
            ScenarioAction(at=0.0, kind=WORKLOAD_PHASE, workload=load,
                           label="nearest-ingress zipf load"),
            ScenarioAction(at=kill_at, kind=KILL_POOL, target=victim_pool,
                           label=f"kill {victim_pool}"),
        ],
    )


__all__ = [
    "FAIL_NODE", "RECOVER_NODE", "JOIN_POOL", "LEAVE_POOL", "KILL_POOL",
    "LATENCY_SHIFT", "WORKLOAD_PHASE",
    "Scenario", "ScenarioAction", "ScenarioEngine",
    "repair_under_load", "migration_under_load",
    "correlated_pool_failure", "flash_crowd",
    "replica_failover_under_load", "degraded_reads_during_catch_up",
    "quorum_reads_under_lag", "forwarded_writes_during_failover",
]
