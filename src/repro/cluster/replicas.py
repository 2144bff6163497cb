"""Replica groups: r-way shard placement, read routing and failover.

The base cluster places each key's shard on exactly **one** pool, so a
pool failure makes its keys unavailable until an administrator migrates
them.  This module adds the paper-scale answer to read-heavy traffic and
pool loss: every key's shard is instantiated on ``r`` pools chosen by
:meth:`~repro.cluster.ring.HashRing.nodes_for` -- the **primary** runs the
full two-layer LDS protocol (and keeps the paper's per-object atomicity
guarantee), while the ``r - 1`` **followers** are passive replica stores
that learn each committed write through an explicit, kernel-scheduled
*replication lag*.

**Writes** always execute at the primary.  When a write completes there,
the coordinator appends a :class:`ReplicaRecord` to the group's
replication log and schedules one apply event per follower at
``commit + replication_lag (+ jitter)`` on the global clock, so follower
staleness is a first-class, simulated quantity rather than an accident of
execution order.

**Reads** are dispatched by a pluggable :class:`ReadRoutingPolicy`:

* ``primary`` -- every read runs the full protocol read at the primary;
* ``round-robin`` -- reads cycle deterministically over the group;
* ``nearest`` -- reads go to the replica with the smallest seeded
  *distance* (its effective service latency scales with the shared
  :class:`~repro.net.latency.LatencyRegime`, so regime shifts slow
  follower reads exactly like protocol traffic);
* ``least-loaded`` -- reads go to the replica with the fewest in-flight
  (then fewest served) reads;
* ``quorum`` -- the paper-faithful mode: each read queries
  ``read_quorum`` of the r stores (a rotating window over the canonical
  replica order), merges their ``(epoch, tag)`` versions and returns the
  maximum-version value.  A merge that observes a store *below* the
  merged maximum triggers **read repair** -- the lagging store is caught
  up from the replication log at the merge instant instead of waiting
  out the replication lag (``read_repair=False`` restores lag-only
  catch-up for comparison).

**Write forwarding.**  With ``write_ingress="nearest"`` (or an explicit
``via=`` pool on ``invoke_write``) a write arrives at the client's
nearest replica pool; when that pool is a follower the write is
*forwarded* to the primary, charged one distance-scaled forwarding hop on
the global clock.  Forwarding keeps working through a failover freeze:
the forwarded write queues at the frozen primary slot and flushes into
the promoted epoch, so clients never track who the primary is.

A follower read returns the follower's *applied* version, which may lag
the primary -- safe for fresh sessions, dangerous for a session that has
already seen something newer.  The coordinator therefore keeps a
**session floor** (the highest ``(epoch, tag)`` version each logical
session has observed per key, maintained from operation completions) and
overrides any follower choice whose applied version is below the floor
back to the primary.  That is exactly the discipline that keeps the
cross-shard session auditor (:mod:`repro.consistency.sessions`) clean:
with the guard disabled (``session_guard=False``) a lagging follower
serves stale reads and the auditor provably reports them.

**Failover.**  Node failures within a pool degrade redundancy and are
repaired in the background as before.  When a pool loses its *last*
alive node, the membership layer reports it down and every group whose
primary lived there fails over deterministically:

1. the group freezes primary-bound traffic (writes and primary reads
   queue; follower reads keep serving -- the *degraded reads* window);
2. after ``failover_detection_delay`` the first live follower is chosen
   as successor and **catches up**: every logged record it has not yet
   applied is applied now, charged ``catch_up_per_record`` time each;
3. a fresh LDS instance (a new epoch, exactly like a migration epoch)
   starts on the successor's pool seeded with the caught-up value, the
   frozen operations flush into it, and a replacement follower is
   provisioned on the next ring pool to restore ``r``-way redundancy.

Because every acknowledged write is in the log and catch-up applies all
of it, no acknowledged write is lost and the merged history stays
atomic-at-the-primary and session-clean -- under fixed seeds the whole
sequence is reproducible event for event.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.cluster.membership import (
    FAIL,
    JOIN,
    RECOVER,
    Membership,
    MembershipEvent,
)
from repro.cluster.placement import DROP_FOLLOWER
from repro.cluster.ring import derive_seed
from repro.consistency.history import History, Operation, READ, WRITE
from repro.consistency.injection import REPLICA_CLIENT_PREFIX
from repro.consistency.sessions import join_object_id
from repro.core.results import OperationResult
from repro.core.tags import INITIAL_TAG, Tag

#: Sentinel epoch marking a router handle owned by the replica layer
#: (a follower-served or failover-deferred read, or a forwarded write in
#: flight, with no LDS op id yet).
REPLICA_EPOCH = "replica"

#: Replica-group states.
NORMAL = "normal"
FAILING_OVER = "failing-over"
#: Terminal state: the primary died and no live follower remained.
UNSERVICEABLE = "unserviceable"

#: A replica version: the (migration epoch, protocol tag) pair, ordered
#: lexicographically -- identical to the session auditor's versions.
Version = Tuple[int, Tag]


@dataclass(frozen=True)
class ReplicationConfig:
    """Tuning knobs of the replica-group subsystem.

    ``r=1`` (the default) disables the subsystem entirely: the router
    behaves exactly like the pre-replica cluster.
    """

    #: Replicas per key (primary + r-1 followers), capped at the pool count.
    r: int = 1
    #: Virtual time between a write committing at the primary and a
    #: follower applying it.
    replication_lag: float = 30.0
    #: Extra, seeded per-(follower, record) apply delay in [0, lag_jitter).
    lag_jitter: float = 0.0
    #: Base service time of a follower read (scaled by the replica's
    #: seeded distance and the shared latency regime).
    follower_read_latency: float = 2.0
    #: Time between a pool dying and its groups starting promotion.
    failover_detection_delay: float = 10.0
    #: Catch-up cost per unapplied log record during promotion.
    catch_up_per_record: float = 1.0
    #: Delay before a replacement follower is seeded on a new pool.
    provision_delay: float = 25.0
    #: Normalised communication cost charged per follower read served.
    follower_read_cost: float = 1.0
    #: Normalised communication cost charged per record applied / copied.
    replication_unit_cost: float = 1.0
    #: Route a follower read back to the primary when the follower has
    #: not applied the session's floor version yet.  Disabling this is a
    #: *fault injection*: stale follower reads reach clients and the
    #: session auditor must catch them.
    session_guard: bool = True
    #: Stores queried per read under the ``quorum`` routing policy (the
    #: paper's r'-of-r discovery quorum).  None defaults to a majority
    #: (``r // 2 + 1``); must stay within [1, r].  Setting it with any
    #: other policy is a configuration error (the knob would silently do
    #: nothing).
    read_quorum: Optional[int] = None
    #: When a quorum merge observes a store below the merged maximum
    #: version, apply the group's log to it immediately (kernel-clocked at
    #: the merge instant) instead of waiting out the replication lag.
    #: Disable to measure lag-only catch-up.
    read_repair: bool = True
    #: Base one-hop latency of forwarding a write from the ingress replica
    #: to the primary (scaled by the ingress store's seeded distance and
    #: the shared latency regime, exactly like follower reads).
    forward_latency: float = 2.0
    #: Where writes enter the group: ``"primary"`` assumes clients know
    #: the primary (the pre-forwarding behaviour, bit for bit); with
    #: ``"nearest"`` every write arrives at the client's seeded-nearest
    #: replica pool and is *forwarded* to the primary when that pool is a
    #: follower -- including during a failover freeze, where the
    #: forwarded write queues at the frozen primary slot and flushes into
    #: the promoted epoch.
    write_ingress: str = "primary"
    #: Seed for replica distances and lag jitter (derive_seed'd per use).
    #: None means unpinned: facades thread their root seed in; a bare
    #: router just derives from None (still deterministic).
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("the replication factor must be at least 1")
        for name in ("replication_lag", "lag_jitter", "follower_read_latency",
                     "failover_detection_delay", "catch_up_per_record",
                     "provision_delay", "follower_read_cost",
                     "replication_unit_cost", "forward_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.read_quorum is not None and \
                not 1 <= self.read_quorum <= self.r:
            raise ValueError("read_quorum must be within [1, r]")
        if self.write_ingress not in ("primary", "nearest"):
            raise ValueError(
                f"unknown write ingress {self.write_ingress!r}; "
                "choose 'primary' or 'nearest'"
            )


@dataclass(frozen=True)
class ReplicaRecord:
    """One committed write in a group's replication log."""

    seq: int
    #: Global time the primary acknowledged the write.
    committed_at: float
    epoch: int
    tag: Tag
    value: Optional[bytes]

    @property
    def version(self) -> Version:
        return (self.epoch, self.tag)


class FollowerStore:
    """A passive replica of one key on one pool.

    Followers do not run the LDS protocol; they hold the latest applied
    ``(epoch, tag, value)`` and serve reads at replica-read latency.
    """

    def __init__(self, key: str, pool: str, distance: float,
                 version: Version, value: Optional[bytes],
                 created_at: float = 0.0) -> None:
        self.key = key
        self.pool = pool
        #: Seeded, unitless closeness factor; effective read latency is
        #: ``distance * follower_read_latency * regime.scale``.
        self.distance = distance
        self.version = version
        self.value = value
        self.created_at = created_at
        self.applied: Set[int] = set()
        #: Log prefix this store is known to have fully applied: every
        #: record in ``group.log[:log_position]`` is in ``applied``.
        #: Bulk catch-ups (read repair, promotion, provisioning seeds)
        #: advance it so later passes scan only the genuinely new tail;
        #: out-of-order lag applies land in ``applied`` without moving it.
        self.log_position = 0
        self.applies = 0
        self.reads_in_flight = 0
        self.reads_served = 0
        #: True once the store was dropped (pool died, promoted, rebalance).
        self.retired = False

    def apply(self, record: ReplicaRecord) -> bool:
        """Apply one log record; idempotent, keeps the max version."""
        if record.seq in self.applied:
            return False
        self.applied.add(record.seq)
        self.applies += 1
        if record.version > self.version:
            self.version = record.version
            self.value = record.value
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FollowerStore({self.key!r}@{self.pool!r}, "
                f"version={self.version}, applies={self.applies})")


@dataclass(frozen=True)
class ReplicaView:
    """A policy-facing snapshot of one replica at read-dispatch time."""

    pool: str
    is_primary: bool
    distance: float
    reads_in_flight: int
    reads_served: int
    #: Position in the group's canonical order (primary first).
    order: int


class ReadRoutingPolicy(ABC):
    """Chooses which replica serves a read.

    ``choose`` receives the candidates able to serve *right now* (the
    primary is absent while its group is failing over, dead followers are
    dropped) and returns the chosen pool, or ``None`` to wait for the
    primary.  The coordinator may still override a follower choice back
    to the primary to preserve the session guarantees; that override is
    counted against the policy's hit rate, not hidden.
    """

    name: str = "abstract"

    @abstractmethod
    def choose(self, key: str, candidates: List[ReplicaView]) -> Optional[str]:
        """Return the pool to read from (``None`` = wait for the primary)."""

    def rejected(self, key: str, pool: str) -> None:
        """The coordinator could not honor ``choose``'s answer for ``key``
        (session guard override, or the chosen store turned out retired).

        Stateful policies use this to undo the turn they spent on the
        rejected choice, so a temporarily lagging replica keeps its place
        in a deterministic cycle instead of being skipped for good.  The
        default is a no-op (stateless policies have nothing to undo).
        """


class PrimaryOnlyPolicy(ReadRoutingPolicy):
    """Every read runs the full protocol read at the primary."""

    name = "primary"

    def choose(self, key: str, candidates: List[ReplicaView]) -> Optional[str]:
        for view in candidates:
            if view.is_primary:
                return view.pool
        return None


class RoundRobinPolicy(ReadRoutingPolicy):
    """Reads cycle deterministically over the group's replicas."""

    name = "round-robin"

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def choose(self, key: str, candidates: List[ReplicaView]) -> Optional[str]:
        if not candidates:
            return None
        index = self._counters.get(key, 0)
        self._counters[key] = index + 1
        return candidates[index % len(candidates)].pool

    def rejected(self, key: str, pool: str) -> None:
        # Give the turn back: the rejected replica is re-offered on the
        # next read, so a lagging follower resumes its place in the cycle
        # the moment it catches up instead of losing a turn per rejection.
        self._counters[key] = max(0, self._counters.get(key, 1) - 1)


class QuorumReadPolicy(ReadRoutingPolicy):
    """Reads fan out to a quorum of stores and merge their versions.

    The paper resolves every read by querying a *quorum* of servers,
    taking the maximum tag and reading that version; this policy is the
    replica layer's analogue: each read queries ``read_quorum`` of the
    group's r stores (the primary answers from its committed log head at
    store-read latency, followers from their applied state), the
    coordinator merges the ``(epoch, tag)`` versions and returns the
    maximum-version value.  The quorum *window* rotates deterministically
    over the canonical replica order per key, so successive reads spread
    load and periodically form follower-only quorums -- the case where a
    lagging store loses the merge and (with ``read_repair``) is caught up
    on the spot.
    """

    name = "quorum"

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def choose(self, key: str, candidates: List[ReplicaView]) -> Optional[str]:
        chosen = self.choose_quorum(key, candidates, 1)
        return chosen[0] if chosen else None

    def choose_quorum(self, key: str, candidates: List[ReplicaView],
                      quorum: int) -> List[str]:
        """The pools to query: ``quorum`` consecutive candidates starting
        at a per-key rotating offset (distinct by construction)."""
        if not candidates:
            return []
        quorum = min(quorum, len(candidates))
        start = self._counters.get(key, 0)
        self._counters[key] = start + 1
        return [candidates[(start + i) % len(candidates)].pool
                for i in range(quorum)]


class NearestPolicy(ReadRoutingPolicy):
    """Reads go to the replica with the smallest seeded distance."""

    name = "nearest"

    def choose(self, key: str, candidates: List[ReplicaView]) -> Optional[str]:
        if not candidates:
            return None
        return min(candidates, key=lambda v: (v.distance, v.order)).pool


class LeastLoadedPolicy(ReadRoutingPolicy):
    """Reads go to the replica with the fewest in-flight (then served) reads."""

    name = "least-loaded"

    def choose(self, key: str, candidates: List[ReplicaView]) -> Optional[str]:
        if not candidates:
            return None
        return min(candidates,
                   key=lambda v: (v.reads_in_flight, v.reads_served, v.order)).pool


_POLICIES = {
    PrimaryOnlyPolicy.name: PrimaryOnlyPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
    QuorumReadPolicy.name: QuorumReadPolicy,
    NearestPolicy.name: NearestPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
}


def make_read_policy(spec: Union[str, ReadRoutingPolicy]) -> ReadRoutingPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(spec, ReadRoutingPolicy):
        return spec
    try:
        return _POLICIES[spec]()
    except KeyError:
        raise ValueError(
            f"unknown read routing policy {spec!r}; "
            f"choose one of {sorted(_POLICIES)}"
        ) from None


class ReplicaGroup:
    """The replica set serving one key: primary shard + follower stores."""

    def __init__(self, key: str, primary_pool: str, epoch: int,
                 primary_distance: float) -> None:
        self.key = key
        self.primary_pool = primary_pool
        self.epoch = epoch
        self.primary_distance = primary_distance
        self.followers: List[FollowerStore] = []
        self.status = NORMAL
        self.log: List[ReplicaRecord] = []
        #: Highest committed (version, value); seeds promotions and
        #: replacement followers.
        self.latest_version: Version = (epoch, INITIAL_TAG)
        self.latest_value: Optional[bytes] = None
        #: Follower-served reads (kept outside the shard histories so the
        #: per-epoch atomicity check stays primary-only).
        self.history = History()
        #: (handle, reader, nominal at, session) queued while primary-bound
        #: traffic is frozen during failover.  The nominal time is kept so
        #: the post-promotion flush preserves per-client spacing (a client
        #: may only have one operation in flight).
        self.deferred_reads: List[
            Tuple[str, Union[int, str], Optional[float], Optional[str]]
        ] = []
        #: Reads the coordinator routed to the primary and that have not
        #: completed yet (a load heuristic, decremented on READ completions
        #: of the live epoch, so it is approximate around migrations).
        self.primary_in_flight = 0
        #: Reads dispatched per pool over the group's lifetime.
        self.dispatched: Dict[str, int] = {}
        #: Pools with a replacement-follower provision scheduled but not
        #: yet seated (keeps multi-deficit provisioning from piling onto
        #: one target and lets the deficit be filled in one pass).
        self.pending_provisions: Set[str] = set()
        self._read_counter = 0

    def live_followers(self) -> List[FollowerStore]:
        return [store for store in self.followers if not store.retired]

    def follower(self, pool: str) -> Optional[FollowerStore]:
        for store in self.live_followers():
            if store.pool == pool:
                return store
        return None

    def pools(self) -> List[str]:
        """Pools currently holding a replica (primary first)."""
        return [self.primary_pool] + [s.pool for s in self.live_followers()]

    def next_read_id(self) -> int:
        self._read_counter += 1
        return self._read_counter


@dataclass
class ReplicaStats:
    """Aggregate counters of the coordinator."""

    groups_created: int = 0
    records_logged: int = 0
    records_applied: int = 0
    failovers_started: int = 0
    promotions: int = 0
    followers_provisioned: int = 0
    followers_lost: int = 0
    catch_up_records: int = 0
    #: Log records applied by quorum-merge read repair (outside the
    #: normal lag applies counted in ``records_applied``).
    read_repair_records: int = 0


@dataclass
class _PendingQuorumRead:
    """One in-flight quorum read: outstanding legs and their answers."""

    handle: str
    group: ReplicaGroup
    reader: Union[int, str]
    session: Optional[str]
    invoked_at: float
    outstanding: int
    #: ``(version, value, store)`` per successful leg; ``store`` is None
    #: for the primary leg.
    responses: List[Tuple[Version, Optional[bytes],
                          Optional[FollowerStore]]] = field(
        default_factory=list)


class ReplicaCoordinator:
    """Owns every replica group of one :class:`ObjectRouter`.

    Wired by the router itself when its :class:`ReplicationConfig` has
    ``r > 1``; replication lag, follower reads and failover are events on
    the router's global kernel.
    """

    def __init__(self, router, config: ReplicationConfig,
                 read_policy: Union[str, ReadRoutingPolicy] = "primary") -> None:
        self.router = router
        self.config = config
        self.policy = make_read_policy(read_policy)
        if isinstance(self.policy, QuorumReadPolicy):
            self.read_quorum = (config.read_quorum
                                if config.read_quorum is not None
                                else config.r // 2 + 1)
        else:
            if config.read_quorum is not None:
                raise ValueError(
                    "read_quorum only applies to the 'quorum' read policy; "
                    f"the configured policy is {self.policy.name!r}"
                )
            self.read_quorum = None
        self.membership: Membership = router.membership
        for pool in self.membership.pools:
            self._check_pool_name(pool)
        self.groups: Dict[str, ReplicaGroup] = {}
        #: Follower-read handle -> completed result.
        self._results: Dict[str, OperationResult] = {}
        #: Handles of follower reads dispatched but not yet completed.
        self._pending: Set[str] = set()
        #: Handle -> (key, global invocation time) for every pending read,
        #: maintained in lockstep with ``_pending``.  The live-audit
        #: probe's per-key watermark must not pass the invocation time of
        #: any read that may still complete; reads stranded by a pool
        #: crash are removed (they never respond, so they constrain
        #: nothing).
        self._pending_invocations: Dict[str, Tuple[str, float]] = {}
        #: Handle -> in-flight quorum read state.
        self._quorums: Dict[str, _PendingQuorumRead] = {}
        #: Handles already counted in ``RouterStats.quorum_reads`` whose
        #: merge fell back to the primary: the protocol re-dispatch must
        #: not count the same logical read again in ``primary_reads``.
        self._quorum_counted: Set[str] = set()
        #: Per-handle communication cost of served quorum reads (one
        #: store-read cost per merged leg).
        self._handle_costs: Dict[str, float] = {}
        #: Handles of writes forwarded follower->primary, still in flight.
        self._forwarding: Set[str] = set()
        #: (session, key) -> highest version the session has observed.
        self._floors: Dict[Tuple[str, str], Version] = {}
        self._seq = 0
        #: Communication cost of replication traffic (applies, catch-up,
        #: provisioning copies) and of served follower reads.
        self.replication_cost = 0.0
        self.read_cost = 0.0
        #: (global_time, kind, detail) for the harness timeline:
        #: ``primary-down`` / ``promote`` / ``follower-lost`` /
        #: ``follower-provisioned`` / ``unserviceable`` / ``read-repair``.
        self.failover_log: List[Tuple[float, str, str]] = []
        self.stats = ReplicaStats()
        #: Optional shared latency regime scaling follower-read latency.
        self.latency_regime = None
        #: Pools whose kill was already processed (fail_pool delivers one
        #: FAIL event per node; only the first needs the group scan).
        self._dead_pools: Set[str] = set()
        #: Times each pool has gone fully down, ever.  Quorum primary
        #: legs capture the count at dispatch: a pool that crashed while
        #: the leg was in flight stays silent even if it has since
        #: recovered (recovery empties ``_dead_pools``, but it cannot
        #: un-lose an in-flight request).
        self._pool_crashes: Dict[str, int] = {}
        #: Tracing bookkeeping (only filled while the router traces):
        #: log seq -> write handle, so replication applies can hang child
        #: spans off the write that produced the record; handle -> freeze
        #: start, so deferred reads get a freeze-wait span at flush.
        self._record_handles: Dict[int, str] = {}
        self._freeze_started: Dict[str, float] = {}
        self.membership.subscribe(self._on_membership_event)

    @property
    def _trace(self):
        """The router's trace recorder (None when tracing is off)."""
        return self.router._trace

    # -- wiring ------------------------------------------------------------------

    @property
    def kernel(self):
        return self.router.kernel

    def _now(self) -> float:
        return self.kernel.now

    def _distance(self, key: str, pool: str) -> float:
        """Seeded, unitless replica distance in [0.5, 1.5)."""
        return 0.5 + (derive_seed(self.config.seed, "distance", key, pool)
                      % 1000) / 1000.0

    def _lag_jitter(self, key: str, pool: str, seq: int) -> float:
        if self.config.lag_jitter <= 0:
            return 0.0
        unit = (derive_seed(self.config.seed, "lag", key, pool, seq)
                % 10_000) / 10_000.0
        return unit * self.config.lag_jitter

    def _scaled_latency(self, distance: float, base: float) -> float:
        """One replica hop: seeded distance x base cost x regime scale.

        The single definition of how the shared latency regime scales
        replica traffic -- store reads, quorum legs and forwarding hops
        all price through it.
        """
        scale = (self.latency_regime.scale
                 if self.latency_regime is not None else 1.0)
        return distance * base * scale

    def _read_latency(self, store: FollowerStore) -> float:
        return self._scaled_latency(store.distance,
                                    self.config.follower_read_latency)

    # -- group lifecycle ------------------------------------------------------------

    def ensure_group(self, key: str, shard) -> ReplicaGroup:
        """Create the replica group for a freshly built epoch-0 shard."""
        existing = self.groups.get(key)
        if existing is not None:
            return existing
        now = self._now()
        pools = self.membership.ring.nodes_for(key, self.config.r)
        group = ReplicaGroup(key=key, primary_pool=shard.pool,
                             epoch=shard.epoch,
                             primary_distance=self._distance(key, shard.pool))
        group.latest_value = self.router.config.initial_value
        for pool in pools[1:]:
            # The ring still lists dead pools (failures do not change
            # placement); a store created there would never be retired --
            # its pool's FAIL events predate the group -- and would serve
            # reads from a dead pool forever.  Seed live pools only and
            # let provisioning restore the missing redundancy elsewhere.
            if not self.membership.pool_alive(pool):
                continue
            group.followers.append(FollowerStore(
                key=key, pool=pool, distance=self._distance(key, pool),
                version=group.latest_version, value=group.latest_value,
                created_at=now,
            ))
        self.groups[key] = group
        self.stats.groups_created += 1
        self._hook_primary(group, shard)
        if len(group.live_followers()) < self.config.r - 1:
            self._provision_replacement(group, now)
        # A key can be touched for the first time after its primary pool
        # already died (lazy shard creation): fail over immediately.
        if not self.membership.pool_alive(group.primary_pool):
            self._begin_failover(group, now)
        return group

    def _hook_primary(self, group: ReplicaGroup, shard) -> None:
        """Subscribe to the (current epoch's) primary completions."""
        epoch = shard.epoch
        object_id = shard.system.object_id

        def on_completion(result: OperationResult,
                          _group=group, _epoch=epoch, _object_id=object_id,
                          _shard=shard) -> None:
            self._on_primary_completion(_group, _shard, _epoch, _object_id,
                                        result)

        shard.system.completion_hooks.append(on_completion)

    def frozen(self, key: str) -> bool:
        """True while ``key``'s primary-bound traffic must queue (failover)."""
        group = self.groups.get(key)
        return group is not None and group.status in (FAILING_OVER,
                                                      UNSERVICEABLE)

    # -- primary completions: floors + write fan-out ----------------------------------

    def _bump_floor(self, session: Optional[str], key: str,
                    version: Version) -> None:
        if session is None:
            return
        slot = (session, key)
        current = self._floors.get(slot)
        if current is None or version > current:
            self._floors[slot] = version

    def session_floor(self, session: Optional[str],
                      key: str) -> Optional[Version]:
        if session is None:
            return None
        return self._floors.get((session, key))

    def _on_primary_completion(self, group: ReplicaGroup, shard, epoch: int,
                               object_id: str, result: OperationResult) -> None:
        session = self.router._op_sessions.get((object_id, result.op_id))
        version = (epoch, result.tag)
        self._bump_floor(session, group.key, version)
        if result.kind != WRITE:
            if group.primary_in_flight > 0:
                group.primary_in_flight -= 1
            return
        if self.router._shards.get(group.key) is not shard:
            return  # a retired epoch draining; its writes were already logged
        self._seq += 1
        record = ReplicaRecord(seq=self._seq,
                               committed_at=self.router.shard_now(shard),
                               epoch=epoch, tag=result.tag, value=result.value)
        group.log.append(record)
        self.stats.records_logged += 1
        if self._trace is not None:
            handle = self.router._op_handles.get((object_id, result.op_id))
            if handle is not None:
                self._record_handles[record.seq] = handle
        if record.version > group.latest_version:
            group.latest_version = record.version
            group.latest_value = record.value
        for store in group.live_followers():
            self._schedule_apply(group, store, record)

    def _schedule_apply(self, group: ReplicaGroup, store: FollowerStore,
                        record: ReplicaRecord) -> None:
        at = (record.committed_at + self.config.replication_lag
              + self._lag_jitter(group.key, store.pool, record.seq))
        self.kernel.schedule_at(
            max(at, self._now()),
            lambda: self._apply(group, store, record),
        )

    def _apply(self, group: ReplicaGroup, store: FollowerStore,
               record: ReplicaRecord) -> None:
        if store.retired:
            return
        if store.apply(record):
            self.stats.records_applied += 1
            self.replication_cost += self.config.replication_unit_cost
            tracer = self._trace
            if tracer is not None:
                handle = self._record_handles.get(record.seq)
                if handle is not None:
                    tracer.child_span(
                        handle, f"replication-apply {store.pool}", "replica",
                        record.committed_at, self._now(),
                        args={"pool": store.pool, "seq": record.seq},
                    )

    # -- epoch transitions driven by the router -----------------------------------------

    def on_primary_migrated(self, key: str, shard,
                            carried_value: Optional[bytes]) -> None:
        """A rebalance moved ``key``'s primary: adopt the new epoch.

        The new epoch's initial state is replicated to the followers like
        a write (they must learn the epoch bump, or their versions would
        stay comparable-but-stale forever).
        """
        group = self.groups.get(key)
        if group is None:
            return
        group.primary_pool = shard.pool
        group.primary_distance = self._distance(key, shard.pool)
        group.epoch = shard.epoch
        self._hook_primary(group, shard)
        self._log_snapshot(group, shard.epoch, carried_value)

    def _log_snapshot(self, group: ReplicaGroup, epoch: int,
                      value: Optional[bytes]) -> None:
        """Append an epoch-boundary record (initial value of a new epoch)."""
        self._seq += 1
        record = ReplicaRecord(seq=self._seq, committed_at=self._now(),
                               epoch=epoch, tag=INITIAL_TAG, value=value)
        group.log.append(record)
        self.stats.records_logged += 1
        if record.version > group.latest_version:
            group.latest_version = record.version
            group.latest_value = record.value
        for store in group.live_followers():
            self._schedule_apply(group, store, record)

    # -- read routing --------------------------------------------------------------------

    def _candidates(self, group: ReplicaGroup) -> List[ReplicaView]:
        """The replicas able to serve right now, in canonical order (the
        primary is absent while the group is failing over)."""
        candidates: List[ReplicaView] = []
        order = 0
        if group.status == NORMAL:
            candidates.append(ReplicaView(
                pool=group.primary_pool, is_primary=True,
                distance=group.primary_distance,
                reads_in_flight=group.primary_in_flight,
                reads_served=group.dispatched.get(group.primary_pool, 0),
                order=order,
            ))
            order += 1
        for store in group.live_followers():
            candidates.append(ReplicaView(
                pool=store.pool, is_primary=False, distance=store.distance,
                reads_in_flight=store.reads_in_flight,
                reads_served=store.reads_served, order=order,
            ))
            order += 1
        return candidates

    def invoke_read(self, key: str, reader: Union[int, str] = 0,
                    at: Optional[float] = None,
                    session: Optional[str] = None) -> str:
        """Route one read: quorum fan-out, follower serve, primary queue,
        or failover defer.

        The routing decision is made at invocation time (the kernel's
        arrival events invoke at their nominal global time, so for
        workload traffic this *is* the arrival instant).
        """
        self.router.shard(key)  # also creates the group
        group = self.groups[key]
        handle = self.router._new_handle(key, REPLICA_EPOCH)
        now = self._now()
        # A late-scheduled arrival (nominal ``at`` already in the past)
        # dispatches at the clock, never before it -- on *every* path, so
        # primary- and follower-served reads of the same arrival batch get
        # consistent invocation timestamps.
        dispatch_at = now if at is None else max(at, now)
        clamped_at = None if at is None else dispatch_at
        if self._trace is not None:
            self._trace.begin_op(handle, READ, group.key, dispatch_at,
                                 args={"reader": reader, "session": session})

        if self.read_quorum is not None:
            return self._invoke_quorum_read(group, handle, reader,
                                            dispatch_at, session)

        candidates = self._candidates(group)
        choice = self.policy.choose(key, candidates)
        stats = self.router.stats
        if choice is not None:
            stats.policy_choices += 1
        routed = choice
        store = None
        rejected: Set[str] = set()
        remaining = candidates
        while routed is not None and routed != group.primary_pool:
            if routed in rejected:
                # A policy ignoring the reduced list (e.g. a stale cache)
                # re-named an already-rejected pool: stop retrying.
                routed = None
                break
            store = group.follower(routed)
            floor = (self.session_floor(session, key)
                     if self.config.session_guard else None)
            if store is None:
                # The policy named a pool without a live store (e.g. a
                # stale cache of a just-retired follower): reject, but
                # visibly.
                stats.retired_fallbacks += 1
            elif floor is not None and store.version < floor:
                # The follower has not caught up to what this session
                # already observed.
                stats.session_fallbacks += 1
                if self._trace is not None:
                    self._trace.child_instant(handle, "session-fallback",
                                              "read", dispatch_at,
                                              args={"pool": routed,
                                                    "floor": floor})
                store = None
            else:
                break  # a serviceable follower
            # Rejected: give the policy its turn back and re-offer the
            # *reduced* candidate list, so the turn passes to the next
            # replica instead of collapsing straight onto the primary (a
            # lagging follower must not starve its healthy peers).
            self.policy.rejected(key, routed)
            rejected.add(routed)
            remaining = [view for view in remaining if view.pool != routed]
            routed = self.policy.choose(key, remaining)
        if routed is not None and routed != group.primary_pool \
                and store is not None:
            if routed == choice:
                stats.policy_honored += 1
            self._serve_follower_read(group, store, handle, reader,
                                      dispatch_at, session)
            return handle

        # Primary-bound (explicitly, by fallback, or because nothing else
        # can serve): queue on the shard, or defer while failing over.
        if group.status != NORMAL:
            group.deferred_reads.append((handle, reader, dispatch_at, session))
            self._pending.add(handle)
            self._pending_invocations[handle] = (group.key, dispatch_at)
            stats.failover_deferrals += 1
            if self._trace is not None:
                self._freeze_started[handle] = dispatch_at
            return handle
        if routed == choice and choice is not None:
            stats.policy_honored += 1
        self._dispatch_primary_read(group, handle, reader, clamped_at, session)
        return handle

    def _dispatch_primary_read(self, group: ReplicaGroup, handle: str,
                               reader: Union[int, str], at: Optional[float],
                               session: Optional[str]) -> None:
        """Queue one read on the group's primary, with the shared accounting
        (also used when failover-deferred reads flush at promotion).

        A read that already counted as a quorum read (its merge fell back
        here) is one *logical* read: it stays in ``quorum_reads`` and is
        excluded from ``primary_reads``, so ``routed_reads`` counts every
        read exactly once however it was resolved.
        """
        stats = self.router.stats
        if handle in self._quorum_counted:
            self._quorum_counted.discard(handle)
        else:
            stats.primary_reads += 1
        stats.count_replica_read(group.primary_pool)
        group.primary_in_flight += 1
        group.dispatched[group.primary_pool] = (
            group.dispatched.get(group.primary_pool, 0) + 1
        )
        self.router._queue_read(group.key, reader=reader, at=at,
                                session=session, handle=handle)

    def _serve_follower_read(self, group: ReplicaGroup, store: FollowerStore,
                             handle: str, reader: Union[int, str],
                             at: float, session: Optional[str]) -> None:
        store.reads_in_flight += 1
        group.dispatched[store.pool] = group.dispatched.get(store.pool, 0) + 1
        self._pending.add(handle)
        self._pending_invocations[handle] = (group.key, at)
        # Routing counters are symmetric with the primary path: both count
        # at dispatch.  A read stranded by a crash mid-flight therefore
        # still counts as *routed* to its replica (see RouterStats).
        stats = self.router.stats
        stats.follower_reads += 1
        stats.count_replica_read(store.pool)
        respond_at = at + self._read_latency(store)
        self.kernel.schedule_at(
            max(respond_at, self._now()),
            lambda crashes=self._pool_crashes.get(store.pool, 0):
                self._complete_follower_read(group, store, handle, reader,
                                             at, session, crashes),
        )

    def _complete_follower_read(self, group: ReplicaGroup, store: FollowerStore,
                                handle: str, reader: Union[int, str],
                                invoked_at: float, session: Optional[str],
                                crashes_at_dispatch: int) -> None:
        now = self._now()
        store.reads_in_flight -= 1
        epoch, tag = store.version
        object_id = join_object_id(group.key, epoch)
        op_id = (f"{group.key}/{REPLICA_CLIENT_PREFIX}{store.pool}"
                 f"/read-{group.next_read_id()}")
        client_id = f"{REPLICA_CLIENT_PREFIX}{store.pool}/reader-{reader}"
        if self._pool_crashes.get(store.pool, 0) != crashes_at_dispatch:
            # The store's pool *crashed* while the read was in flight:
            # like in-flight operations at a crashed primary, it never
            # responds.  Recorded as incomplete so the merged history
            # tells the truth; the handle stays pending.  A graceful
            # retirement (rebalance drop, promotion) is not a crash: the
            # store served until it was dropped and its answer stands.
            group.history.add(Operation(
                op_id=op_id, client_id=client_id, kind=READ,
                object_id=object_id, invoked_at=invoked_at, session=session,
            ))
            # Stranded forever: it constrains no future completion, so it
            # must not pin the live-audit watermark for this key.
            self._pending_invocations.pop(handle, None)
            if self._trace is not None:
                self._trace.child_instant(
                    handle, f"store-crashed {store.pool}", "replica", now,
                    args={"pool": store.pool},
                )
            return
        store.reads_served += 1
        operation = Operation(
            op_id=op_id, client_id=client_id, kind=READ, object_id=object_id,
            value=store.value, invoked_at=invoked_at, responded_at=now,
            tag=tag, session=session,
        )
        group.history.add(operation)
        self.router.notify_replica_completion(operation)
        result = OperationResult(
            op_id=op_id, client_id=client_id, kind=READ, tag=tag,
            value=store.value, invoked_at=invoked_at, responded_at=now,
        )
        self._results[handle] = result
        self._pending.discard(handle)
        self._pending_invocations.pop(handle, None)
        self._bump_floor(session, group.key, (epoch, tag))
        self.read_cost += self.config.follower_read_cost
        tracer = self._trace
        if tracer is not None:
            tracer.child_span(handle, f"store-read {store.pool}", "replica",
                              invoked_at, now, args={"pool": store.pool})
            tracer.end_op(handle, now, args={"tag": str(tag)})

    # -- quorum reads --------------------------------------------------------------------

    def _invoke_quorum_read(self, group: ReplicaGroup, handle: str,
                            reader: Union[int, str], dispatch_at: float,
                            session: Optional[str]) -> str:
        """Fan one read out to ``read_quorum`` stores and merge the answers.

        Every leg is a *store read*: followers answer from their applied
        state, the primary from its committed log head
        (``group.latest_*``), each at store-read latency scaled by its
        seeded distance and the shared latency regime -- the paper's
        query-a-quorum-of-servers discovery, not a full protocol read.
        The read completes when the last leg resolves; a leg whose store
        dies mid-flight resolves as *failed*, so the merge degrades to the
        surviving answers instead of hanging.
        """
        stats = self.router.stats
        candidates = self._candidates(group)
        if not candidates:
            # Failing over with no live follower: defer to the promoted
            # primary like any other primary-bound read.
            group.deferred_reads.append((handle, reader, dispatch_at, session))
            self._pending.add(handle)
            self._pending_invocations[handle] = (group.key, dispatch_at)
            stats.failover_deferrals += 1
            if self._trace is not None:
                self._freeze_started[handle] = dispatch_at
            return handle
        pools = self.policy.choose_quorum(group.key, candidates,
                                          self.read_quorum)
        stats.quorum_reads += 1
        stats.policy_choices += 1
        views = {view.pool: view for view in candidates}
        pending = _PendingQuorumRead(
            handle=handle, group=group, reader=reader, session=session,
            invoked_at=dispatch_at, outstanding=len(pools),
        )
        self._quorums[handle] = pending
        self._pending.add(handle)
        self._pending_invocations[handle] = (group.key, dispatch_at)
        now = self._now()
        for pool in pools:
            view = views[pool]
            store = None if view.is_primary else group.follower(pool)
            if store is not None:
                store.reads_in_flight += 1
            group.dispatched[pool] = group.dispatched.get(pool, 0) + 1
            stats.count_replica_read(pool)
            latency = self._scaled_latency(view.distance,
                                           self.config.follower_read_latency)
            self.kernel.schedule_at(
                max(dispatch_at + latency, now),
                lambda pool=pool, store=store,
                crashes=self._pool_crashes.get(pool, 0):
                    self._complete_quorum_leg(pending, pool, store, crashes),
            )
        return handle

    def _complete_quorum_leg(self, pending: _PendingQuorumRead, pool: str,
                             store: Optional[FollowerStore],
                             crashes_at_dispatch: int) -> None:
        pending.outstanding -= 1
        group = pending.group
        answered = False
        if store is not None:
            store.reads_in_flight -= 1
            # Same crash-generation rule as the single-store path: only a
            # pool crash during the flight silences the leg; a graceful
            # retirement answers from the state the store served until.
            if self._pool_crashes.get(pool, 0) == crashes_at_dispatch:
                store.reads_served += 1
                self.read_cost += self.config.follower_read_cost
                pending.responses.append((store.version, store.value, store))
                answered = True
        elif self._pool_crashes.get(pool, 0) == crashes_at_dispatch:
            # The primary leg answers from the committed log head, sampled
            # at response time.  Only a *crash* of the queried pool while
            # the leg was in flight silences it -- compared by crash
            # generation, so a crash-then-recover inside the window stays
            # silent (recovery cannot un-lose the request), while a
            # benign mid-flight migration (or a graceful leave, which
            # drains first) still answers, and the head only grows, so
            # the answer stands.  Crash semantics match the follower
            # legs' permanent ``retired`` flag.
            self.read_cost += self.config.follower_read_cost
            pending.responses.append(
                (group.latest_version, group.latest_value, None))
            answered = True
        tracer = self._trace
        if tracer is not None:
            tracer.child_span(pending.handle, f"quorum-leg {pool}", "replica",
                              pending.invoked_at, self._now(),
                              args={"pool": pool, "answered": answered})
        if pending.outstanding == 0:
            self._merge_quorum(pending)

    def _merge_quorum(self, pending: _PendingQuorumRead) -> None:
        group = pending.group
        handle = pending.handle
        session = pending.session
        now = self._now()
        del self._quorums[handle]
        stats = self.router.stats
        depth = len(pending.responses)
        stats.observe_quorum_depth(depth)
        tracer = self._trace
        op_id = (f"{group.key}/{REPLICA_CLIENT_PREFIX}quorum"
                 f"/read-{group.next_read_id()}")
        client_id = (f"{REPLICA_CLIENT_PREFIX}quorum"
                     f"/reader-{pending.reader}")
        if not pending.responses:
            # Every queried store died mid-flight: like a single stranded
            # follower read, the operation never responds and the merged
            # history records the truth.
            group.history.add(Operation(
                op_id=op_id, client_id=client_id, kind=READ,
                object_id=join_object_id(group.key, group.epoch),
                invoked_at=pending.invoked_at, session=session,
            ))
            # Stranded forever: do not pin the live-audit watermark.
            self._pending_invocations.pop(handle, None)
            if tracer is not None:
                tracer.child_instant(handle, "quorum-stranded", "replica",
                                     now, args={"depth": depth})
            return
        version, value, _ = max(pending.responses, key=lambda r: r[0])
        if self.config.read_repair:
            self._read_repair(group, pending.responses, version, now,
                              handle=handle)
        floor = self.session_floor(session, group.key)
        if self.config.session_guard and floor is not None \
                and version < floor:
            # The whole quorum lags what this session already observed
            # (a follower-only window): fall back to a full protocol read
            # at the primary.  The legs' transfer cost was still paid.
            stats.session_fallbacks += 1
            self._quorum_counted.add(handle)
            if tracer is not None:
                tracer.child_instant(handle, "quorum-fallback", "replica",
                                     now, args={"depth": depth})
            if group.status != NORMAL:
                group.deferred_reads.append(
                    (handle, pending.reader, now, session))
                stats.failover_deferrals += 1
                if tracer is not None:
                    self._freeze_started[handle] = now
                return
            self._pending.discard(handle)
            self._pending_invocations.pop(handle, None)
            self._dispatch_primary_read(group, handle, pending.reader, now,
                                        session)
            self.router.flush_key(group.key)
            return
        stats.policy_honored += 1
        epoch, tag = version
        operation = Operation(
            op_id=op_id, client_id=client_id, kind=READ,
            object_id=join_object_id(group.key, epoch), value=value,
            invoked_at=pending.invoked_at, responded_at=now, tag=tag,
            session=session,
        )
        group.history.add(operation)
        self.router.notify_replica_completion(operation)
        self._results[handle] = OperationResult(
            op_id=op_id, client_id=client_id, kind=READ, tag=tag,
            value=value, invoked_at=pending.invoked_at, responded_at=now,
        )
        self._handle_costs[handle] = depth * self.config.follower_read_cost
        self._pending.discard(handle)
        self._pending_invocations.pop(handle, None)
        self._bump_floor(session, group.key, version)
        if tracer is not None:
            tracer.end_op(handle, now,
                          args={"tag": str(tag), "depth": depth})

    def _read_repair(self, group: ReplicaGroup, responses, merged: Version,
                     now: float, handle: Optional[str] = None) -> None:
        """Catch up the quorum members the merge observed stale.

        Only stores that *answered this quorum* are repaired (follower
        pairs that never met in a quorum drift until the lag fan-out or a
        later merge catches them -- anti-entropy between followers is a
        tracked follow-up).  The repairer holds the whole replication
        log, so an observed-stale store is brought fully current
        (idempotent applies; records the normal lag fan-out delivers
        later are simply skipped), charged like any other replication
        traffic -- the immediate alternative to waiting out the lag.
        """
        stats = self.router.stats
        for _, _, store in responses:
            if store is None or store.retired or store.version >= merged:
                continue
            applied = sum(1 for record in group.log[store.log_position:]
                          if store.apply(record))
            store.log_position = len(group.log)
            if not applied:
                continue
            stats.read_repairs += 1
            self.stats.read_repair_records += applied
            self.replication_cost += (applied
                                      * self.config.replication_unit_cost)
            self.failover_log.append(
                (now, "read-repair",
                 f"{group.key}: {store.pool} repaired to {store.version} "
                 f"({applied} record(s))")
            )
            if self._trace is not None and handle is not None:
                self._trace.child_instant(
                    handle, f"read-repair {store.pool}", "replica", now,
                    args={"pool": store.pool, "records": applied},
                )

    # -- write forwarding ----------------------------------------------------------------

    def invoke_write(self, key: str, value: bytes,
                     writer: Union[int, str] = 0,
                     at: Optional[float] = None,
                     session: Optional[str] = None,
                     via: Optional[str] = None) -> str:
        """Route one write through its ingress replica.

        ``via`` names the pool the write arrived at (defaults to the
        configured ingress discipline).  A write arriving at the primary
        queues directly, exactly like the pre-forwarding router; a write
        arriving anywhere else is *forwarded*: the primary sees it one
        forwarding hop later on the kernel clock.  Forwarding works
        during a failover freeze too -- the forwarded write queues at the
        frozen primary slot and flushes into the promoted epoch, so
        clients never need to learn the new primary.
        """
        self.router.shard(key)  # also creates the group
        group = self.groups[key]
        if via is not None and via != group.primary_pool \
                and group.follower(via) is None:
            # A mistyped (or foreign-group) ingress would be silently
            # "forwarded" with a fabricated distance -- plausible but
            # wrong accounting.  Only actual members take writes in.
            raise ValueError(
                f"pool {via!r} holds no replica of key {key!r}; "
                f"its members are {group.pools()}"
            )
        now = self._now()
        dispatch_at = now if at is None else max(at, now)
        ingress = via if via is not None else self._ingress_pool(group)
        if ingress == group.primary_pool:
            # Arrived at the primary: no hop to charge, no forward to
            # count -- even mid-failover, where the queued write simply
            # rides the frozen pending queue into the promoted epoch.
            # Like every replica-routed path, a nominal time already in
            # the past is clamped to the clock (a raw past timestamp
            # would ratchet the whole shard batch forward).
            return self.router._queue_write(
                key, value, writer=writer,
                at=None if at is None else dispatch_at, session=session)
        handle = self.router._new_handle(key, REPLICA_EPOCH)
        self.router.stats.forwarded_writes += 1
        # Validation above plus the ingress discipline guarantee a live
        # follower store here (the primary case queued directly).
        store = group.follower(ingress)
        delay = self._scaled_latency(store.distance,
                                     self.config.forward_latency)
        self._forwarding.add(handle)
        arrive_at = dispatch_at + delay
        tracer = self._trace
        if tracer is not None:
            tracer.begin_op(handle, WRITE, key, dispatch_at,
                            args={"writer": writer, "session": session,
                                  "via": ingress})
            tracer.child_span(handle, f"forward-hop {ingress}", "replica",
                              dispatch_at, arrive_at,
                              args={"from": ingress,
                                    "to": group.primary_pool})
        self.kernel.schedule_at(
            max(arrive_at, now),
            lambda: self._deliver_forwarded_write(group, handle, bytes(value),
                                                  writer, arrive_at, session),
        )
        return handle

    def _ingress_pool(self, group: ReplicaGroup) -> str:
        """The pool a client's write arrives at under the configured
        ingress discipline (the seeded-nearest live replica for
        ``"nearest"``; dead primaries are never an ingress)."""
        if self.config.write_ingress == "primary":
            return group.primary_pool
        nearest = None
        if group.status == NORMAL and \
                self.membership.pool_alive(group.primary_pool):
            nearest = (group.primary_distance, 0, group.primary_pool)
        for order, store in enumerate(group.live_followers(), start=1):
            entry = (store.distance, order, store.pool)
            if nearest is None or entry < nearest:
                nearest = entry
        return group.primary_pool if nearest is None else nearest[2]

    def _deliver_forwarded_write(self, group: ReplicaGroup, handle: str,
                                 value: bytes, writer: Union[int, str],
                                 at: float, session: Optional[str]) -> None:
        """The forwarded write reaches the primary slot: queue and flush.

        While the group is frozen mid-failover the flush is a no-op and
        the write rides the frozen pending queue into the promoted epoch.
        """
        self._forwarding.discard(handle)
        self.router._queue_write(group.key, value, writer=writer, at=at,
                                 session=session, handle=handle)
        self.router.flush_key(group.key)

    # -- results / accounting ----------------------------------------------------------

    def result(self, handle: str) -> Optional[OperationResult]:
        return self._results.get(handle)

    def operation_cost(self, handle: str) -> float:
        """Cost of one served replica read (0 while pending/deferred):
        one store-read cost per merged quorum leg, or a single store-read
        cost for a follower serve."""
        if handle in self._handle_costs:
            return self._handle_costs[handle]
        if handle in self._results:
            return self.config.follower_read_cost
        return 0.0

    def incomplete_reads(self) -> int:
        """Replica reads in flight (follower serves and quorum fan-outs)
        plus reads deferred behind a failover."""
        return len(self._pending)

    def in_flight_forwards(self) -> int:
        """Forwarded writes still travelling follower -> primary."""
        return len(self._forwarding)

    def pending_read_invocations(self) -> List[Tuple[str, float]]:
        """``(key, global invocation time)`` of every replica read that may
        still complete -- the replica layer's contribution to the
        live-audit watermark (reads stranded by a pool crash are already
        excluded; they never respond)."""
        return list(self._pending_invocations.values())

    def sanitizer_watches(self) -> List[Tuple[str, Dict]]:
        """In-flight maps whose entries must all drain by idle.

        Each is popped on every completion *and* strand path; an entry
        surviving to quiescence means some path skipped its cleanup (the
        bug class where a stranded quorum kept its merge state forever).
        Consumed by :meth:`KernelSanitizer.watch_map
        <repro.sim.sanitizer.KernelSanitizer.watch_map>`.
        """
        return [
            ("replicas.pending_invocations", self._pending_invocations),
            ("replicas.quorums", self._quorums),
        ]

    @property
    def total_cost(self) -> float:
        """Replication traffic plus follower-read transfer cost."""
        return self.replication_cost + self.read_cost

    def histories(self) -> List[History]:
        """Follower-read histories, one per group, in key order."""
        return [self.groups[key].history for key in sorted(self.groups)]

    # -- membership reactions: failover and follower loss -----------------------------------

    @staticmethod
    def _check_pool_name(pool: str) -> None:
        """Reject the one pool name that would alias quorum client ids.

        Follower-served operations are stamped ``replica:<pool>/...`` and
        quorum merges ``replica:quorum/...``; a pool named ``quorum`` --
        or anything under a ``quorum/`` prefix, since the marker match is
        prefix-based -- would make the two classes indistinguishable to
        the auditing and injection helpers (the same discipline as the
        router's reserved ``@e<n>`` key suffix).
        """
        if pool == "quorum" or pool.startswith("quorum/"):
            raise ValueError(
                f"pool name {pool!r} is reserved by the replica layer "
                "(quorum-merged reads are stamped 'replica:quorum/...'); "
                "rename the pool"
            )

    def _on_membership_event(self, event: MembershipEvent) -> None:
        pool = event.node.pool
        if event.kind == JOIN:
            self._check_pool_name(pool)
            return
        if event.kind == RECOVER:
            if pool in self._dead_pools:
                self._dead_pools.discard(pool)
                # A previously dead pool is back: groups that could not
                # restore full redundancy for lack of live pools get
                # another provisioning pass.
                for key in sorted(self.groups):
                    group = self.groups[key]
                    if group.status == NORMAL and \
                            len(group.live_followers()) < self.config.r - 1:
                        self._provision_replacement(group, event.time)
            return
        if event.kind != FAIL:
            return
        if self.membership.pool_alive(pool):
            return  # the pool is degraded, not down; repair handles it
        if pool in self._dead_pools:
            # fail_pool emits one FAIL per node of an already-down pool;
            # only the first event does any work.
            return
        self._dead_pools.add(pool)
        self._pool_crashes[pool] = self._pool_crashes.get(pool, 0) + 1
        for key in sorted(self.groups):
            group = self.groups[key]
            if group.status == NORMAL and group.primary_pool == pool:
                self._begin_failover(group, event.time)
            else:
                store = group.follower(pool)
                if store is not None:
                    self._lose_follower(group, store, event.time)

    def _begin_failover(self, group: ReplicaGroup, time: float) -> None:
        group.status = FAILING_OVER
        self.stats.failovers_started += 1
        self.failover_log.append(
            (time, "primary-down",
             f"{group.key}: primary {group.primary_pool} down, "
             f"{len(group.live_followers())} follower(s) serving degraded reads")
        )
        promote_at = time + self.config.failover_detection_delay
        self.kernel.schedule_at(max(promote_at, self._now()),
                                lambda: self._promote(group))

    def _promote(self, group: ReplicaGroup) -> None:
        if group.status != FAILING_OVER:
            return
        now = self._now()
        successor = next(
            (store for store in group.live_followers()
             if self.membership.pool_alive(store.pool)),
            None,
        )
        if successor is None:
            group.status = UNSERVICEABLE
            self.failover_log.append(
                (now, "unserviceable",
                 f"{group.key}: no live follower to promote; "
                 f"{len(group.deferred_reads)} read(s) stranded")
            )
            return
        # Catch-up: every logged record the successor is missing must be
        # applied before it serves writes -- acknowledged writes survive
        # the primary by construction.  The records are *counted* now (the
        # catch-up duration is a detection-time estimate) but applied only
        # when the successor is seated, so degraded reads during the
        # window still observe the successor's genuinely stale state.
        missing = len([record for record in group.log[successor.log_position:]
                       if record.seq not in successor.applied])
        done_at = now + self.config.catch_up_per_record * missing
        self.kernel.schedule_at(
            max(done_at, now),
            lambda: self._finish_promotion(group, successor),
        )

    def _finish_promotion(self, group: ReplicaGroup,
                          successor: FollowerStore) -> None:
        if group.status != FAILING_OVER:
            return
        now = self._now()
        if successor.retired or not self.membership.pool_alive(successor.pool):
            # The successor's own pool died during the catch-up window.
            # Re-run the promotion choice over the remaining live followers
            # (or go unserviceable) instead of seating a primary on a dead
            # pool that no future membership event would ever dislodge.
            self._promote(group)
            return
        # Apply the catch-up at seat time (normal lag applies that landed
        # during the window are skipped by the idempotent applied-set).
        # If a successor dies mid-window the next candidate catches up and
        # is charged afresh -- both copies consumed real bandwidth.
        caught_up = 0
        for record in group.log[successor.log_position:]:
            if successor.apply(record):
                caught_up += 1
                self.replication_cost += self.config.replication_unit_cost
        successor.log_position = len(group.log)
        self.stats.catch_up_records += caught_up
        old_pool = group.primary_pool
        successor.retired = True
        shard = self.router.failover_shard(group.key, successor.pool,
                                           successor.value)
        group.primary_pool = successor.pool
        group.primary_distance = successor.distance
        group.epoch = shard.epoch
        group.status = NORMAL
        self.stats.promotions += 1
        self._hook_primary(group, shard)
        # Replicate the promotion snapshot so the surviving followers learn
        # the new epoch.
        self._log_snapshot(group, shard.epoch, successor.value)
        self.failover_log.append(
            (now, "promote",
             f"{group.key}: {successor.pool} promoted (epoch {shard.epoch}, "
             f"caught up {caught_up} record(s)); was {old_pool}")
        )
        # Un-freeze: flush the writes and reads queued during the failover.
        deferred = group.deferred_reads
        group.deferred_reads = []
        tracer = self._trace
        for handle, reader, at, session in deferred:
            self._pending.discard(handle)
            self._pending_invocations.pop(handle, None)
            if tracer is not None:
                started = self._freeze_started.pop(handle, None)
                if started is not None:
                    tracer.child_span(handle, "freeze-wait", "failover",
                                      started, now,
                                      args={"promoted": successor.pool})
            self._dispatch_primary_read(group, handle, reader, at, session)
        self.router.flush_key(group.key)
        # Restore r-way redundancy: the dead primary's slot is re-provisioned
        # on the next ring pool.
        self._provision_replacement(group, now)

    def _lose_follower(self, group: ReplicaGroup, store: FollowerStore,
                       time: float) -> None:
        store.retired = True
        self.stats.followers_lost += 1
        self.failover_log.append(
            (time, "follower-lost", f"{group.key}: follower {store.pool} down")
        )
        self._provision_replacement(group, time)

    def _provision_replacement(self, group: ReplicaGroup, time: float) -> None:
        """Schedule replacement followers on unused, live ring pools until
        the full ``r - 1`` redundancy is covered (live + already pending).

        This is the replica layer's "repair": it restores the *replica*,
        where the repair scheduler restores individual server slots.
        """
        if group.status == UNSERVICEABLE:
            return
        deficit = (self.config.r - 1 - len(group.live_followers())
                   - len(group.pending_provisions))
        if deficit <= 0:
            return
        used = set(group.pools()) | group.pending_provisions
        targets = [pool for pool in self._live_preference(group.key)
                   if pool not in used][:deficit]
        # Fewer targets than the deficit means there are not enough live
        # pools right now; a pool recovery re-triggers this pass.
        ready_at = max(time + self.config.provision_delay, self._now())
        for target in targets:
            group.pending_provisions.add(target)
            self.kernel.schedule_at(
                ready_at,
                lambda target=target: self._provision(group, target),
            )

    def _provision(self, group: ReplicaGroup, pool: str) -> None:
        group.pending_provisions.discard(pool)
        if group.status == UNSERVICEABLE:
            return
        if len(group.live_followers()) >= self.config.r - 1:
            return
        if not self.membership.pool_alive(pool) or pool in group.pools():
            # The pool chosen at schedule time died (or gained another of
            # the group's replicas) during the provisioning delay: re-run
            # the selection over the remaining live ring pools instead of
            # leaving the group under-replicated for good.
            self._provision_replacement(group, self._now())
            return
        now = self._now()
        store = FollowerStore(
            key=group.key, pool=pool,
            distance=self._distance(group.key, pool),
            version=group.latest_version, value=group.latest_value,
            created_at=now,
        )
        # Seeding copies the object once; the copy subsumes every record
        # logged so far (the seed *is* their net effect), so the whole log
        # counts as applied and only future commits replicate to the store.
        store.applied.update(record.seq for record in group.log)
        store.log_position = len(group.log)
        group.followers.append(store)
        self.replication_cost += self.config.replication_unit_cost
        self.stats.followers_provisioned += 1
        self.failover_log.append(
            (now, "follower-provisioned",
             f"{group.key}: new follower on {pool} at version "
             f"{store.version}")
        )

    # -- replica-aware rebalancing -------------------------------------------------------

    def _live_preference(self, key: str) -> List[str]:
        """The ring's preference walk for ``key``, dead pools skipped.

        The ring deliberately keeps failed pools (node failures do not
        change placement), but a *fully dead* pool cannot host anything:
        planning a primary or follower onto one would seat a replica that
        no future membership event ever revives.  Liveness filtering
        happens here, at planning time, so the plan converges back to the
        raw ring walk if the pool ever recovers.
        """
        ring = self.membership.ring
        return [pool for pool in ring.nodes_for(key, len(ring))
                if self.membership.pool_alive(pool)]

    def desired_placement(self) -> Dict[str, List[str]]:
        """The replica sets the current ring prescribes for tracked keys
        (first ``r`` *live* pools of each key's preference walk)."""
        return {key: self._live_preference(key)[:self.config.r]
                for key in sorted(self.groups)}

    def current_placement(self) -> Dict[str, List[str]]:
        return {key: self.groups[key].pools() for key in sorted(self.groups)}

    def apply_follower_changes(self, changes, time: float) -> None:
        """Execute the follower part of a replica-aware rebalance plan.

        Changes for groups that are mid-failover are skipped wholesale,
        mirroring the router's frozen-move skip: the plan was computed
        against a primary move that did not happen, and dropping a frozen
        group's only caught-up follower would strand the promotion.  A
        later rebalance realigns the group once it is serving again.
        """
        for change in changes:
            group = self.groups.get(change.key)
            if group is None or self.frozen(change.key):
                continue
            if change.action == DROP_FOLLOWER:
                store = group.follower(change.pool)
                if store is not None:
                    store.retired = True
            else:  # add
                ready_at = max(time + self.config.provision_delay, self._now())
                self.kernel.schedule_at(
                    ready_at,
                    lambda group=group, pool=change.pool:
                        self._provision(group, pool),
                )


__all__ = [
    "FAILING_OVER",
    "NORMAL",
    "UNSERVICEABLE",
    "FollowerStore",
    "LeastLoadedPolicy",
    "NearestPolicy",
    "PrimaryOnlyPolicy",
    "QuorumReadPolicy",
    "ReadRoutingPolicy",
    "ReplicaCoordinator",
    "ReplicaGroup",
    "ReplicaRecord",
    "ReplicaStats",
    "ReplicaView",
    "ReplicationConfig",
    "RoundRobinPolicy",
    "Version",
    "make_read_policy",
]
