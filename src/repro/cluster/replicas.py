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
``commit + replication_lag`` on the global clock, so follower
staleness is a first-class, simulated quantity rather than an accident of
execution order.

**Reads** are routed by one of three built-in modes
(:data:`~repro.cluster.read_policy.READ_POLICIES`): ``primary`` runs
every read at the primary, ``round-robin`` takes each group's stores in
turn, and ``quorum`` fans each read out to a rotating window of
``read_quorum`` stores and merges their versions.  Under
``quorum``, each leg answers its store's version (metadata, which costs
nothing) and only the *data leg* also moves the value; a stale or lost
data leg costs a second store read.  A merge that observes a store
*below* the merged maximum triggers **read repair** -- the lagging store
is caught up from the replication log at the merge instant instead of
waiting out the replication lag (``read_repair=False`` restores lag-only
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
cross-shard session auditor (:mod:`repro.consistency.sessions`) clean;
the history-level drills ``inject_stale_follower_read`` and
``inject_quorum_version_drop`` (:mod:`repro.consistency.injection`)
plant the stale reads the guard prevents, and the auditor reports them.

**Failover.**  Node failures within a pool degrade redundancy and are
repaired in the background as before.  When a pool loses its *last*
alive node, the membership layer reports it down and every group whose
primary lived there fails over deterministically:

1. the coordinator registers the failover as the key's epoch hand-off
   with the router, which freezes primary-bound traffic: writes and
   primary reads queue in the router's one frozen queue, while follower
   reads keep serving -- the *degraded reads* window;
2. after ``failover_detection_delay`` the first live follower is chosen
   as successor and **catches up**: every logged record it has not yet
   applied is applied now, charged ``catch_up_per_record`` time each;
3. the router starts a fresh LDS instance (a new epoch, exactly like a
   migration epoch) on the successor's pool holding the caught-up value,
   the group adopts it (:meth:`ReplicaCoordinator.adopt_epoch`, shared
   with migrations), the frozen operations flush into it, and a
   replacement follower is provisioned on the next ring pool to restore
   ``r``-way redundancy.

Every acknowledged write is in the log and catch-up applies all of it,
so none is lost -- the router's audit checks the carry as the retiring
epoch's hand-off read -- and under fixed seeds the whole sequence is
reproducible event for event.  A group with no live follower to promote
becomes unserviceable: its reads strand, and its writes stay queued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.cluster.membership import (
    FAIL,
    JOIN,
    RECOVER,
    Membership,
    MembershipEvent,
)
from repro.cluster.placement import DROP_FOLLOWER
from repro.cluster.read_policy import (  # re-exported (see __all__)
    FAILING_OVER, NORMAL, UNSERVICEABLE, ReplicationConfig)
from repro.cluster.ring import derive_seed
from repro.consistency.history import (
    READ, REPLICA_CLIENT_PREFIX, WRITE, History, Operation, join_object_id,
    slotted)
from repro.core.results import OperationResult
from repro.core.tags import INITIAL_TAG, Tag

#: A replica version: the (migration epoch, protocol tag) pair, ordered
#: lexicographically -- identical to the session auditor's versions.
Version = Tuple[int, Tag]

#: Normalised communication cost of one value moved: a store read that
#: returns the value, or one log record applied or copied to a follower.
#: A version (metadata) moves for free.
TRANSFER_COST = 1.0


@slotted
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

    def __init__(self, group: "ReplicaGroup", pool: str,
                 distance: float) -> None:
        self.key = group.key
        self.pool = pool
        #: Seeded, unitless closeness factor; effective read latency is
        #: ``distance * follower_read_latency * regime.scale``.
        self.distance = distance
        #: Seeded with the group's latest value, which subsumes every
        #: record logged so far (it *is* their net effect).
        self.version = group.latest_version
        self.value = group.latest_value
        #: The group's replication log, and the watermark: the store has
        #: applied ``log[:log_position]`` and nothing after it.  Lag
        #: applies arrive in log order, because every record waits the
        #: same constant replication lag and the kernel runs ties in FIFO
        #: order; bulk catch-ups (read repair, promotion) move it to the
        #: log head, and the lag applies they overtook are skipped.
        self.log = group.log
        self.log_position = len(group.log)
        #: True once the store was dropped (pool died, promoted, rebalance).
        self.retired = False

    def apply(self, record: ReplicaRecord) -> bool:
        """Apply the next log record; keeps the max version.

        A record below the watermark was already applied (False); one
        above it means a record was lost, which is a bug.
        """
        position = self.log_position
        if position == len(self.log) or record.seq < self.log[position].seq:
            return False
        if record is not self.log[position]:
            raise RuntimeError(f"{self!r}: log record {record.seq} arrived "
                               f"before record {self.log[position].seq}")
        self.log_position = position + 1
        if record.version > self.version:
            self.version = record.version
            self.value = record.value
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FollowerStore({self.key!r}@{self.pool!r}, "
                f"version={self.version}, log_position={self.log_position})")



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
        #: Routing turns taken: a round-robin read serves
        #: ``candidates[turn % n]``, a quorum read queries the window
        #: starting there.
        self.turn = 0
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
    #: Quorum reads whose stale or lost data leg took a second store read.
    second_store_reads: int = 0


@dataclass
class _ReplicaRead:
    """One replica read that may still complete: served by a follower or
    fanned out to a quorum."""

    handle: str
    group: ReplicaGroup
    reader: Union[int, str]
    session: Optional[str]
    invoked_at: float
    #: Quorum legs still in flight.
    legs: int = 0
    #: ``(version, store)`` per answered leg (``store`` None: the primary);
    #: a list means the read already counted in ``quorum_reads``.
    responses: Optional[List[Tuple[Version, Optional[FollowerStore]]]] = None
    #: The data leg's pool, and its ``(version, value)`` once it answers.
    data_pool: Optional[str] = None
    data: Optional[Tuple[Version, Optional[bytes]]] = None


class ReplicaCoordinator:
    """Owns every replica group of one :class:`ObjectRouter`.

    Wired by the router itself when its :class:`ReplicationConfig` has
    ``r > 1``; replication lag, follower reads and failover are events on
    the router's global kernel.
    """

    def __init__(self, router, config: ReplicationConfig,
                 read_policy: str = "primary") -> None:
        self.router = router
        self.config = config
        #: One of READ_POLICIES (the router checked the name).
        self.read_policy = read_policy
        if read_policy == "quorum":
            self.read_quorum = (config.read_quorum
                                if config.read_quorum is not None
                                else config.r // 2 + 1)
        else:
            if config.read_quorum is not None:
                raise ValueError(
                    "read_quorum only applies to the 'quorum' read policy; "
                    f"the configured policy is {read_policy!r}"
                )
            self.read_quorum = None
        self.membership: Membership = router.membership
        for pool in self.membership.pools:
            self._check_pool_name(pool)
        self.groups: Dict[str, ReplicaGroup] = {}
        #: Handle -> every replica read in flight.  A read leaves it when
        #: it responds, moves to the primary or strands; a stranded read
        #: never responds, so it pins no live-audit watermark.
        self._pending_reads: Dict[str, _ReplicaRead] = {}
        #: Handle -> completed replica read: its group history's record.
        self._completed: Dict[str, Operation] = {}
        #: Served quorum reads that moved two values (every other moved one).
        self._two_transfers: Set[str] = set()
        #: (label, reader) -> ``replica:<label>/reader-<reader>``.
        self._client_ids: Dict[Tuple[str, Union[int, str]], str] = {}
        #: Replica reads stranded by a crash or an unserviceable group.
        self._stranded = 0
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
        #: Log seq -> write handle (only filled while the router traces),
        #: so replication applies hang child spans off the write that
        #: produced the record.
        self._record_handles: Dict[int, str] = {}
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
                group, pool, self._distance(key, pool)))
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
        session = shard.system.recorder.completed[result.op_id].session
        version = (epoch, result.tag)
        self._bump_floor(session, group.key, version)
        if result.kind != WRITE:
            return
        if self.router.shards.get(group.key) is not shard:
            return  # a retired epoch draining; its writes were already logged
        record = self._append(group, epoch, result.tag, result.value)
        if self._trace is not None:
            handle = self.router._op_handles.get((object_id, result.op_id))
            if handle is not None:
                self._record_handles[record.seq] = handle

    def _append(self, group: ReplicaGroup, epoch: int, tag: Tag,
                value: Optional[bytes]) -> ReplicaRecord:
        """Log one record -- a committed write, or a new epoch's initial
        value -- and apply it at every live follower one lag later."""
        self._seq += 1
        record = ReplicaRecord(seq=self._seq, committed_at=self._now(),
                               epoch=epoch, tag=tag, value=value)
        group.log.append(record)
        self.stats.records_logged += 1
        if record.version > group.latest_version:
            group.latest_version = record.version
            group.latest_value = record.value
        apply_at = record.committed_at + self.config.replication_lag
        for store in group.live_followers():
            self.kernel.schedule_at(
                apply_at,
                lambda store=store: self._apply(store, record))
        return record

    def _apply(self, store: FollowerStore, record: ReplicaRecord) -> None:
        if store.retired:
            return
        if store.apply(record):
            self.stats.records_applied += 1
            self.replication_cost += TRANSFER_COST
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

    def adopt_epoch(self, key: str, shard, carried_value: bytes) -> None:
        """A migration or a promotion moved ``key``'s primary to ``shard``,
        a new epoch: serve from it.

        The new epoch's initial state is replicated to the followers like
        a write (they must learn the epoch bump, or their versions would
        stay comparable-but-stale forever).
        """
        group = self.groups[key]
        group.primary_pool = shard.pool
        group.primary_distance = self._distance(key, shard.pool)
        group.epoch = shard.epoch
        group.status = NORMAL
        self._hook_primary(group, shard)
        self._append(group, shard.epoch, INITIAL_TAG, carried_value)

    # -- read routing --------------------------------------------------------------------

    def _candidates(self, group: ReplicaGroup) -> List[Optional[FollowerStore]]:
        """The stores able to serve right now, in canonical order: ``None``
        for the primary (absent while the group is failing over), then the
        live followers."""
        primary = [None] if group.status == NORMAL else []
        return primary + group.live_followers()

    def invoke_read(self, key: str, reader: Union[int, str] = 0,
                    at: Optional[float] = None,
                    session: Optional[str] = None) -> str:
        """Route one read: quorum fan-out, follower serve or primary queue.

        The routing decision is made at invocation time (the kernel's
        arrival events invoke at their nominal global time, so for
        workload traffic this *is* the arrival instant).
        """
        self.router.shard(key)  # also creates the group
        group = self.groups[key]
        handle = self.router._new_handle(key)
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

        read = _ReplicaRead(handle, group, reader, session, dispatch_at)
        stats = self.router.stats
        if self.read_policy == "primary":
            if group.status == NORMAL:
                stats.policy_choices += 1
                stats.policy_honored += 1
            self._dispatch_primary_read(read, clamped_at)
            return handle

        # Round-robin: the store at the group's turn serves.
        candidates = self._candidates(group)
        if candidates:
            stats.policy_choices += 1
        honored = True
        floor = self.session_floor(session, key)
        while candidates:
            store = candidates[group.turn % len(candidates)]
            if store is None or floor is None or store.version >= floor:
                group.turn += 1
                if honored:
                    stats.policy_honored += 1
                break
            # The follower has not caught up to what this session already
            # observed: it gives its turn back and leaves the list, so the
            # turn passes to the next store instead of collapsing onto the
            # primary (a lagging follower must not starve its healthy
            # peers) and it keeps its place once it catches up.
            stats.session_fallbacks += 1
            if self._trace is not None:
                self._trace.child_instant(handle, "session-fallback", "read",
                                          dispatch_at,
                                          args={"pool": store.pool,
                                                "floor": floor})
            candidates.remove(store)
            honored = False
        else:
            store = None  # nothing left to serve: wait for the primary
        if store is not None:
            self._serve_follower_read(read, store)
        else:
            self._dispatch_primary_read(read, clamped_at)
        return handle

    def _dispatch_primary_read(self, read: _ReplicaRead, at: Optional[float],
                               counted: bool = False) -> None:
        """Queue one read on the group's primary, with the shared accounting.

        During a failover the read waits in the router's frozen queue at
        its nominal time ``at`` (so the flush keeps per-client spacing); an
        unserviceable group never thaws, so the read strands at once.  A
        read that already ``counted`` as a quorum read (its merge fell back
        here) is one *logical* read: it stays in ``quorum_reads`` and out of
        ``primary_reads``, so ``routed_reads`` counts every read once.
        """
        group = read.group
        if group.status == UNSERVICEABLE:
            self._strand_unserviceable(read)
            return
        stats = self.router.stats
        if group.status == FAILING_OVER:
            stats.failover_deferrals += 1
            at = self._now() if at is None else at
        if not counted:
            stats.primary_reads += 1
        stats.count_replica_read(group.primary_pool)
        self.router._queue_read(group.key, reader=read.reader, at=at,
                                session=read.session, handle=read.handle)

    def _strand_unserviceable(self, read: _ReplicaRead) -> None:
        """Strand a primary-bound read of a group that never thaws, stamped
        via the dead primary's pool."""
        group = read.group
        op_id, client_id = self._read_ids(group, group.primary_pool,
                                          read.reader)
        self._strand(read, op_id, client_id, group.epoch, "unserviceable",
                     {"pool": group.primary_pool})

    def _read_ids(self, group: ReplicaGroup, label: str,
                  reader: Union[int, str]) -> Tuple[str, str]:
        """Operation and client id of a read stamped ``replica:<label>``."""
        client_id = self._client_ids.get((label, reader))
        if client_id is None:
            client_id = self._client_ids[label, reader] = (
                f"{REPLICA_CLIENT_PREFIX}{label}/reader-{reader}")
        return (f"{group.key}/{REPLICA_CLIENT_PREFIX}{label}"
                f"/read-{group.next_read_id()}", client_id)

    def _strand(self, read: _ReplicaRead, op_id: str, client_id: str,
                epoch: int, instant: str, args: Dict) -> None:
        """Record a read that will never respond.

        The merged history gets the operation without a response, so it
        tells the truth, and the read leaves the pending map: it constrains
        no future completion, so it must not pin the live-audit watermark.
        """
        group = read.group
        group.history.add(Operation(
            op_id=op_id, client_id=client_id, kind=READ,
            object_id=join_object_id(group.key, epoch),
            invoked_at=read.invoked_at, session=read.session,
        ))
        self._pending_reads.pop(read.handle, None)
        self._stranded += 1
        if self._trace is not None:
            self._trace.child_instant(read.handle, instant, "replica",
                                      self._now(), args=args)

    def _respond(self, read: _ReplicaRead, op_id: str, client_id: str,
                 version: Version, value: Optional[bytes]) -> None:
        """Complete a read with ``value`` at ``version``; end its trace."""
        group = read.group
        now = self._now()
        epoch, tag = version
        operation = Operation(
            op_id=op_id, client_id=client_id, kind=READ,
            object_id=join_object_id(group.key, epoch), value=value,
            invoked_at=read.invoked_at, responded_at=now, tag=tag,
            session=read.session,
        )
        group.history.add(operation)
        self.router.notify_replica_completion(operation)
        self._completed[read.handle] = operation
        del self._pending_reads[read.handle]
        self._bump_floor(read.session, group.key, version)
        if self._trace is not None:
            args = {"tag": str(tag)}
            if read.responses is not None:
                args["depth"] = len(read.responses)
            self._trace.end_op(read.handle, now, args=args)

    def _serve_follower_read(self, read: _ReplicaRead,
                             store: FollowerStore) -> None:
        self._pending_reads[read.handle] = read
        # Routing counters are symmetric with the primary path: both count
        # at dispatch.  A read stranded by a crash mid-flight therefore
        # still counts as *routed* to its replica (see RouterStats).
        stats = self.router.stats
        stats.follower_reads += 1
        stats.count_replica_read(store.pool)
        respond_at = read.invoked_at + self._read_latency(store)
        self.kernel.schedule_at(
            max(respond_at, self._now()),
            lambda crashes=self._pool_crashes.get(store.pool, 0):
                self._complete_follower_read(read, store, crashes),
        )

    def _complete_follower_read(self, read: _ReplicaRead,
                                store: FollowerStore,
                                crashes_at_dispatch: int) -> None:
        op_id, client_id = self._read_ids(read.group, store.pool, read.reader)
        if self._pool_crashes.get(store.pool, 0) != crashes_at_dispatch:
            # The store's pool *crashed* while the read was in flight:
            # like in-flight operations at a crashed primary, it never
            # responds.  A graceful retirement (rebalance drop, promotion)
            # is not a crash: the store served until it was dropped and
            # its answer stands.
            self._strand(read, op_id, client_id, store.version[0],
                         f"store-crashed {store.pool}", {"pool": store.pool})
            return
        self.read_cost += TRANSFER_COST
        if self._trace is not None:
            self._trace.child_span(read.handle, f"store-read {store.pool}",
                                   "replica", read.invoked_at, self._now(),
                                   args={"pool": store.pool})
        self._respond(read, op_id, client_id, store.version, store.value)

    # -- quorum reads --------------------------------------------------------------------

    def _invoke_quorum_read(self, group: ReplicaGroup, handle: str,
                            reader: Union[int, str], dispatch_at: float,
                            session: Optional[str]) -> str:
        """Fan one read out to ``read_quorum`` stores and merge the answers.

        The paper's reader asks a *quorum* of servers for tags (metadata)
        and only then fetches the maximum tag's value; this is the replica
        layer's analogue.  Every leg is a *store read*: followers answer
        from their applied state, the primary from its committed log head
        (``group.latest_*``), each at store-read latency scaled by its
        seeded distance and the shared latency regime -- not a full
        protocol read.  **Cost:** a leg's version is free and one *data
        leg* -- the primary if queried (its log head is never behind), else
        the nearest follower -- moves the value, so a served quorum read
        costs one ``TRANSFER_COST``, or two when its data leg answered stale
        and a second store read fetched the merged version, whatever
        ``read_quorum`` is.  The window starts at the group's turn and
        rotates over the canonical store order, so successive reads spread
        load and periodically form follower-only quorums -- the case where
        a lagging store loses the merge and (with ``read_repair``) is caught
        up on the spot.  The read merges when the last leg resolves; a leg
        whose store dies mid-flight resolves as *failed*, so the merge
        degrades to the surviving answers instead of hanging.
        """
        read = _ReplicaRead(handle, group, reader, session, dispatch_at)
        candidates = self._candidates(group)
        if not candidates:
            # Failing over with no live follower: wait for the promoted
            # primary like any other primary-bound read.
            self._dispatch_primary_read(read, dispatch_at)
            return handle
        # (store, pool, distance, canonical position) per leg.
        legs = []
        for i in range(min(self.read_quorum, len(candidates))):
            position = (group.turn + i) % len(candidates)
            store = candidates[position]
            if store is None:
                legs.append((None, group.primary_pool, group.primary_distance,
                             position))
            else:
                legs.append((store, store.pool, store.distance, position))
        group.turn += 1
        stats = self.router.stats
        stats.quorum_reads += 1
        stats.policy_choices += 1
        read.legs = len(legs)
        read.responses = []
        read.data_pool = min(legs, key=lambda leg: (leg[0] is not None,
                                                    leg[2], leg[3]))[1]
        self._pending_reads[handle] = read
        now = self._now()
        for store, pool, distance, _ in legs:
            stats.count_replica_read(pool)
            latency = self._scaled_latency(distance,
                                           self.config.follower_read_latency)
            self.kernel.schedule_at(
                max(dispatch_at + latency, now),
                lambda pool=pool, store=store,
                crashes=self._pool_crashes.get(pool, 0):
                    self._complete_quorum_leg(read, pool, store, crashes),
            )
        return handle

    def _complete_quorum_leg(self, read: _ReplicaRead, pool: str,
                             store: Optional[FollowerStore],
                             crashes_at_dispatch: int) -> None:
        read.legs -= 1
        # Same crash-generation rule as the single-store path: only a crash
        # of the queried pool while the leg was in flight silences it, so
        # a crash-then-recover inside the window stays silent (recovery
        # cannot un-lose the request).  A graceful retirement answers from
        # the state the store served until; a benign mid-flight migration
        # (or a graceful leave, which drains first) still answers from the
        # primary's committed log head, sampled now -- the head only grows,
        # so the answer stands.
        answered = self._pool_crashes.get(pool, 0) == crashes_at_dispatch
        if answered:
            if store is None:
                group = read.group
                answer = (group.latest_version, group.latest_value)
            else:
                answer = (store.version, store.value)
            read.responses.append((answer[0], store))
            if pool == read.data_pool:
                self.read_cost += TRANSFER_COST
                read.data = answer
        tracer = self._trace
        if tracer is not None:
            tracer.child_span(read.handle, f"quorum-leg {pool}", "replica",
                              read.invoked_at, self._now(),
                              args={"pool": pool, "answered": answered})
        if read.legs == 0:
            self._merge_quorum(read)

    def _merge_quorum(self, read: _ReplicaRead) -> None:
        group = read.group
        handle = read.handle
        now = self._now()
        stats = self.router.stats
        depth = len(read.responses)
        stats.observe_quorum_depth(depth)
        tracer = self._trace
        op_id, client_id = self._read_ids(group, "quorum", read.reader)
        if not read.responses:
            # Every queried store died mid-flight: like a single stranded
            # follower read, the operation never responds.
            self._strand(read, op_id, client_id, group.epoch,
                         "quorum-stranded", {"depth": depth})
            return
        version, freshest = max(read.responses, key=lambda r: r[0])
        if self.config.read_repair:
            self._read_repair(group, read.responses, version, now,
                              handle=handle)
        floor = self.session_floor(read.session, group.key)
        if floor is not None and version < floor:
            # The whole quorum lags what this session already observed
            # (a follower-only window): fall back to a full protocol read
            # at the primary.  The data leg's transfer was still paid.
            stats.session_fallbacks += 1
            if tracer is not None:
                tracer.child_instant(handle, "quorum-fallback", "replica",
                                     now, args={"depth": depth})
            self._read_at_primary(read)
            return
        if read.data is not None and read.data[0] == version:
            stats.policy_honored += 1
            self._respond(read, op_id, client_id, *read.data)
            return
        # A stale or lost data leg: read the value from the freshest store,
        # a follower (an answering primary leg is the data leg, and fresh),
        # under the legs' crash rule (a pool already down loses it too).
        self.stats.second_store_reads += 1
        crashes = (None if freshest.pool in self._dead_pools
                   else self._pool_crashes.get(freshest.pool, 0))
        self.kernel.schedule_at(
            now + self._read_latency(freshest),
            lambda: self._complete_second_read(read, freshest, crashes,
                                               op_id, client_id, now))

    def _complete_second_read(self, read: _ReplicaRead, store: FollowerStore,
                              crashes_at_dispatch: Optional[int], op_id: str,
                              client_id: str, merged_at: float) -> None:
        if self._pool_crashes.get(store.pool, 0) != crashes_at_dispatch:
            self._read_at_primary(read)  # that store died too
            return
        self.read_cost += TRANSFER_COST
        if read.data is not None:
            self._two_transfers.add(read.handle)
        if self._trace is not None:
            self._trace.child_span(read.handle, f"store-read {store.pool}",
                                   "replica", merged_at, self._now(),
                                   args={"pool": store.pool})
        self.router.stats.policy_honored += 1
        self._respond(read, op_id, client_id, store.version, store.value)

    def _read_at_primary(self, read: _ReplicaRead) -> None:
        """Serve a quorum read at the primary, still one quorum read."""
        del self._pending_reads[read.handle]
        self._dispatch_primary_read(read, self._now(), counted=True)
        self.router.flush_key(read.group.key)

    def _catch_up(self, store: FollowerStore) -> int:
        """Apply every logged record ``store`` has not applied yet, charged
        as replication traffic; returns how many."""
        missing = store.log[store.log_position:]
        for record in missing:
            store.apply(record)
        applied = len(missing)
        self.replication_cost += applied * TRANSFER_COST
        return applied

    def _read_repair(self, group: ReplicaGroup, responses, merged: Version,
                     now: float, handle: Optional[str] = None) -> None:
        """Catch up the quorum members the merge observed stale.

        Only stores that *answered this quorum* are repaired (follower
        pairs that never met in a quorum drift until the lag fan-out or a
        later merge catches them -- anti-entropy between followers is a
        tracked follow-up).  The repairer holds the whole replication
        log, so an observed-stale store is brought fully current (the
        records the normal lag fan-out delivers later are skipped),
        charged like any other replication traffic -- the immediate
        alternative to waiting out the lag.
        """
        stats = self.router.stats
        for _, store in responses:
            if store is None or store.retired or store.version >= merged:
                continue
            applied = self._catch_up(store)
            if not applied:
                continue
            stats.read_repairs += 1
            self.stats.read_repair_records += applied
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
        handle = self.router._new_handle(key)
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
        op = self._completed.get(handle)
        return None if op is None else OperationResult.of(op)

    def operation_cost(self, handle: str) -> float:
        """Values one served replica read moved (0 while pending or
        stranded): one, or two for a quorum read whose data leg answered
        stale before the second store read."""
        if handle not in self._completed:
            return 0.0
        return (2 if handle in self._two_transfers else 1) * TRANSFER_COST

    def incomplete_reads(self) -> int:
        """Replica reads in flight (follower serves and quorum fan-outs)
        or stranded."""
        return len(self._pending_reads) + self._stranded

    def in_flight_forwards(self) -> int:
        """Forwarded writes still travelling follower -> primary."""
        return len(self._forwarding)

    def pending_read_invocations(self) -> List[Tuple[str, float]]:
        """``(key, global invocation time)`` of every replica read that may
        still complete -- the replica layer's contribution to the
        live-audit watermark (stranded reads are excluded; they never
        respond)."""
        return [(read.group.key, read.invoked_at)
                for read in self._pending_reads.values()]

    def sanitizer_watches(self) -> List[Tuple[str, Dict]]:
        """In-flight maps whose entries must all drain by idle.

        A read leaves the map on every completion *and* strand path; an
        entry surviving to quiescence means some path skipped its cleanup
        (the bug class where a stranded quorum kept its merge state
        forever).  Consumed by :meth:`KernelSanitizer.watch_map
        <repro.net.sanitizer.KernelSanitizer.watch_map>`.
        """
        return [("replicas.pending_reads", self._pending_reads)]

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
        self.router.begin_failover(group.key, time)
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
            # The group never thaws: its reads leave the frozen queue and
            # strand; its writes stay queued.
            group.status = UNSERVICEABLE
            shard = self.router.shard(group.key)
            held = [op for op in shard.pending if op.kind == READ]
            shard.pending = [op for op in shard.pending if op.kind != READ]
            self.failover_log.append(
                (now, "unserviceable",
                 f"{group.key}: no live follower to promote; "
                 f"{len(held)} read(s) stranded")
            )
            for op in held:
                self._strand_unserviceable(_ReplicaRead(
                    op.handle, group, op.client, op.session,
                    now if op.at is None else op.at))
            return
        # Catch-up: every logged record the successor is missing must be
        # applied before it serves writes -- acknowledged writes survive
        # the primary by construction.  The records are *counted* now (the
        # catch-up duration is a detection-time estimate) but applied only
        # when the successor is seated, so degraded reads during the
        # window still observe the successor's genuinely stale state.
        missing = len(group.log) - successor.log_position
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
        # during the window already moved the watermark).  If a successor
        # dies mid-window the next candidate catches up and is charged
        # afresh -- both copies consumed real bandwidth.
        caught_up = self._catch_up(successor)
        self.stats.catch_up_records += caught_up
        old_pool = group.primary_pool
        successor.retired = True
        # The hand-off read answers with the successor's value, at its tag
        # when that version belongs to the retiring epoch.
        epoch, tag = successor.version
        shard = self.router.failover_shard(
            group.key, successor.pool, successor.value,
            tag if epoch == group.epoch else INITIAL_TAG)
        self.stats.promotions += 1
        self.failover_log.append(
            (now, "promote",
             f"{group.key}: {successor.pool} promoted (epoch {shard.epoch}, "
             f"caught up {caught_up} record(s)); was {old_pool}")
        )
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
        # Seeding copies the object once; only future commits replicate.
        store = FollowerStore(group, pool, self._distance(group.key, pool))
        group.followers.append(store)
        self.replication_cost += TRANSFER_COST
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
        """Execute the follower part of a replica-aware rebalance plan (the
        router holds back the changes of a key that is failing over)."""
        for change in changes:
            group = self.groups[change.key]
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
    "ReplicaCoordinator",
    "ReplicaGroup",
    "ReplicaRecord",
    "ReplicaStats",
    "ReplicationConfig",
    "Version",
]
