"""The object router: one ``write/read`` front-end over many LDS shards.

:class:`ObjectRouter` exposes the same driving API style as
:class:`~repro.core.system.LDSSystem` -- ``invoke_write`` / ``invoke_read``
/ ``run_until_idle`` / ``history`` / ``operation_cost`` -- but keyed by
*object key*.  Each key is placed on a server pool by the membership's
consistent-hash ring, and the router lazily instantiates one full LDS
deployment (an :class:`LDSSystem`) per key on that pool: independent
instances over one shared event queue.

Operations are *batched per shard*: invocations are queued on the target
shard and injected in one pass per flush, so a workload touching
thousands of keys performs one dispatch walk per shard instead of one per
operation.  ``run_until_idle`` flushes automatically.

Every shard runs on the one :class:`~repro.net.simulator.Simulator` of the
router's :class:`~repro.net.kernel.GlobalScheduler`, so operations,
repairs and migrations on different shards interleave on one monotonic
global clock, and ``kernel.now`` is every shard's "now".

Failures and rebalancing:

* when the membership reports a node **failure**, the router crashes the
  corresponding server slot (same layer, same index) in every shard hosted
  on that pool; repair is *not* inline -- it is the job of the
  :class:`~repro.cluster.repair.RepairScheduler`;
* when a pool **joins or leaves** the ring, the router computes a
  deterministic :class:`~repro.cluster.placement.RebalancePlan` over its
  tracked keys and (on :meth:`rebalance`) migrates each moved shard.

A migration and a replica failover are one **epoch hand-off**, a kernel
activity the router owns.  The key freezes: its reads and writes queue in
the shard's one ``pending`` list.  The value to carry comes from a
migration's copy read (a real protocol read, issued once the retiring
epoch finished its in-flight operations) or from the caught-up follower a
failover promotes.  A fresh instance then starts on the next pool as the
key's next *epoch*, holding that value, and the queued operations flush
into it.  The carry is the retiring epoch's **hand-off read** (for a
failover, invoked when the pool was reported down and answering at
promotion); :meth:`ObjectRouter.check_atomicity` checks it and that the
next epoch starts from its value, so a key's epochs form one register.

:class:`~repro.sim.harness.ClusterSimulation` is an :class:`ObjectRouter`:
it adds the seeded wiring (membership, repair, telemetry, scenarios)
around this driving API rather than a second copy of it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace as dc_replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Union

from repro.cluster.membership import FAIL, L1_ROLE, Membership, MembershipEvent
from repro.cluster.placement import (
    RebalancePlan,
    ShardMove,
    diff_placements,
    diff_replica_placements,
)
from repro.cluster.read_policy import READ_POLICIES, ReplicationConfig
from repro.cluster.ring import RingBalance, stable_hash
from repro.consistency.history import (
    EPOCH_SUFFIX, History, Operation, READ, WRITE, join_object_id)
from repro.core.config import LDSConfig
from repro.core.results import OperationResult
from repro.core.system import LDSSystem
from repro.net.latency import BoundedLatencyModel, LatencyModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.replicas import ReplicaCoordinator
    from repro.consistency.linearizability import AtomicityViolation
    from repro.core.tags import Tag

#: Op and client id of a failover's hand-off read in its epoch's history.
FAILOVER_HANDOFF = "handoff"


@dataclass
class _PendingOp:
    """One queued (not yet injected) operation on a shard."""

    handle: str
    kind: str
    client: Union[int, str]
    at: Optional[float]
    value: Optional[bytes] = None
    #: Logical cross-shard client session (see repro.consistency.sessions).
    session: Optional[str] = None


@dataclass
class _Handoff:
    """A key's epoch hand-off under way: a migration or a failover.  The
    key stays frozen -- its reads and writes queue in ``shard.pending`` --
    until the value to carry is known."""

    shard: "Shard"
    #: The migration's move; None for a failover.
    move: Optional[ShardMove] = None
    #: Op id of a migration's copy read, once the retiring epoch drained.
    copy_read: Optional[str] = None
    #: When a failover's primary pool was reported down.
    down_at: float = 0.0
    #: With replica groups: a migration plan's follower changes for the
    #: key and the plan's time, applied when the new epoch starts.
    follower_changes: list = field(default_factory=list)
    planned_at: float = 0.0


@dataclass
class Shard:
    """A live LDS instance serving one object key on one pool."""

    key: str
    pool: str
    epoch: int
    system: LDSSystem
    pending: List[_PendingOp] = field(default_factory=list)
    #: Histories of previous epochs, oldest first, each holding its
    #: hand-off read.
    retired_histories: List[History] = field(default_factory=list)
    #: The hand-off read of each previous epoch, oldest first: the read
    #: whose value the next epoch started from.
    handoffs: List[Operation] = field(default_factory=list)
    #: Monotone shift applied to nominal workload times (grows when a
    #: batch is flushed after its nominal window already passed, e.g. the
    #: operations a migration or failover kept queued).
    time_shift: float = 0.0
    #: handle -> op id of each operation flushed into this epoch: the key
    #: of its one record in ``system.recorder``.
    op_ids: Dict[str, str] = field(default_factory=dict)

    @property
    def object_id(self) -> str:
        return self.system.object_id


@dataclass
class RouterStats:
    """Counters describing the router's batching, migration and (with
    replica groups) read-routing activity.

    Plain ints and dicts, like :class:`~repro.cluster.repair.RepairStats`:
    the router never calls into the observability layer.  With telemetry
    on, :meth:`repro.obs.telemetry.Telemetry.attach` registers one
    read-through ``router_*`` instrument per field, so the registry reads
    these values at export time.

    Scalar counters (all monotone unless noted):

    * ``batches_flushed`` / ``operations_flushed`` / ``largest_batch``
      (a high-water mark) / ``migrations``;
    * ``arrivals`` -- operations injected through kernel arrival events;
    * ``primary_reads`` -- reads routed to a group's primary (includes
      session-guard fallbacks and reads held by a failover freeze);
      ``follower_reads`` -- reads routed to follower stores.  Both count at
      dispatch time: a read stranded by a crash mid-flight stays counted
      as routed, and a read held by a failover counts at arrival, against
      the dead primary's pool;
    * ``session_fallbacks`` -- follower choices overridden to the primary
      by the session guard;
    * ``failover_deferrals`` -- primary-bound reads that arrived during a
      failover and wait in the frozen queue for the promoted epoch;
    * ``quorum_reads`` -- reads resolved by quorum fan-out (each counts
      once however many legs it queried); ``read_repairs`` -- lagging
      stores caught up by quorum-merge read repair;
    * ``forwarded_writes`` -- writes that arrived at a non-primary pool
      and were forwarded (one hop on the kernel clock);
    * ``policy_choices`` / ``policy_honored`` -- reads for which the
      routing mode made a concrete choice / ... that the chosen replica
      actually served.

    Dict-shaped series:

    * ``reads_by_replica`` -- reads routed per pool (primary and follower
      routes combined);
    * ``quorum_depths`` -- merged responses per quorum read (legs whose
      store died mid-flight never answer, so depth < read_quorum marks a
      degraded merge).
    """

    batches_flushed: int = 0
    operations_flushed: int = 0
    largest_batch: int = 0
    migrations: int = 0
    arrivals: int = 0
    primary_reads: int = 0
    follower_reads: int = 0
    session_fallbacks: int = 0
    failover_deferrals: int = 0
    quorum_reads: int = 0
    read_repairs: int = 0
    forwarded_writes: int = 0
    policy_choices: int = 0
    policy_honored: int = 0
    reads_by_replica: Dict[str, int] = field(default_factory=dict)
    quorum_depths: Dict[int, int] = field(default_factory=dict)

    def count_replica_read(self, pool: str) -> None:
        """Count a read routed to ``pool`` (the hot-path increment)."""
        counts = self.reads_by_replica
        counts[pool] = counts.get(pool, 0) + 1

    def observe_quorum_depth(self, depth: int) -> None:
        """Count one quorum merge that gathered ``depth`` responses."""
        depths = self.quorum_depths
        depths[depth] = depths.get(depth, 0) + 1

    # -- derived ------------------------------------------------------------------

    @property
    def routed_reads(self) -> int:
        """Reads that went through the replica-group read router."""
        return self.primary_reads + self.follower_reads + self.quorum_reads

    @property
    def policy_hit_rate(self) -> float:
        """Fraction of policy choices that were honored (not overridden)."""
        if not self.policy_choices:
            return 0.0
        return self.policy_honored / self.policy_choices

    def as_dict(self) -> Dict[str, object]:
        """A plain-dict snapshot of every counter (benchmarks, reports)."""
        return asdict(self)


class ObjectRouter:
    """Routes keyed read/write operations to per-shard LDS instances."""

    def __init__(self, config: LDSConfig, membership: Membership, kernel, *,
                 writers_per_shard: int = 1, readers_per_shard: int = 1,
                 latency_factory: Optional[Callable[[str, str], LatencyModel]] = None,
                 replication: Optional[ReplicationConfig] = None,
                 read_policy: str = "primary",
                 telemetry=None) -> None:
        if writers_per_shard < 1 or readers_per_shard < 1:
            raise ValueError("each shard needs at least one writer and one reader "
                             "(reads also implement shard migration)")
        if read_policy not in READ_POLICIES:
            raise ValueError(f"unknown read routing policy {read_policy!r}; "
                             f"choose one of {', '.join(READ_POLICIES)}")
        self.config = config
        self.membership = membership
        self.writers_per_shard = writers_per_shard
        self.readers_per_shard = readers_per_shard
        if latency_factory is None:
            latency_factory = lambda pool, key: BoundedLatencyModel(
                seed=stable_hash(f"{pool}:{key}") & 0xFFFFFFFF
            )
        self._latency_factory = latency_factory
        self._shards: Dict[str, Shard] = {}
        #: key -> its live shard: a read-only view of the router's own map.
        self.shards: Mapping[str, Shard] = MappingProxyType(self._shards)
        #: Handles are ``<key>/op-<n>``; each epoch maps the ones flushed
        #: into it to op ids (``Shard.op_ids``).
        self._handle_counter = 0
        #: Arrivals of added workloads not yet on the kernel's queue.
        self.arrivals_waiting = 0
        #: (key, epoch) -> a retired epoch, its system kept whole: its
        #: protocol traffic (late L2 offloads) may still be queued, and
        #: still costs what it costs.
        self._retired: Dict[tuple, Shard] = {}
        #: key -> the hand-off under way; the key is frozen meanwhile.
        self._handoffs: Dict[str, _Handoff] = {}
        #: (object_id, op_id) of the hand-off reads; excluded from the
        #: merged history so workload statistics only count foreground
        #: operations.
        self._internal_ops: set = set()
        #: Callbacks invoked for every newly built shard (the repair
        #: scheduler uses this to cover shards born on degraded pools).
        self.shard_created_hooks: List[Callable[[Shard], None]] = []
        #: Pure observers of completed operations, fired as
        #: ``observer(shard, result)`` for primary-shard completions and
        #: ``observer(None, operation)`` for replica-served reads (the
        #: latter already in merged global-clock form).  The live-audit
        #: probe subscribes here; observers must never mutate the
        #: cluster.  Register before the first shard is built -- shards
        #: only install the completion hook when a consumer exists.
        self.operation_observers: List[Callable] = []
        #: The span sink: the trace recorder, the latency tracker, or a
        #: fanout over both -- all present the same four-method surface.
        self._trace = telemetry.op_sink() if telemetry is not None else None
        self.stats = RouterStats()
        #: (object_id, op_id) -> handle, recorded at flush while tracing so
        #: shard completion hooks can close the right root span.
        self._op_handles: Dict[tuple, str] = {}
        #: The :class:`~repro.net.kernel.GlobalScheduler` whose simulator
        #: every shard runs on; the one clock the cluster runs on.
        self.kernel = kernel
        #: (global time, key, source_pool, target_pool) per migration.
        self.migration_log: List[tuple] = []
        #: Replica-group coordinator (None when replication is off, i.e.
        #: r <= 1 -- the pre-replica single-copy behaviour, bit for bit).
        self.replicas: Optional[ReplicaCoordinator] = None
        if replication is not None and replication.r > 1:
            # Imported here so a run without replication never loads it.
            from repro.cluster.replicas import ReplicaCoordinator
            self.replicas = ReplicaCoordinator(self, replication,
                                               read_policy=read_policy)
        membership.subscribe(self._on_membership_event)

    # -- shard management -----------------------------------------------------

    def shard(self, key: str) -> Shard:
        """The shard serving ``key``, created on first use."""
        existing = self._shards.get(key)
        if existing is not None:
            return existing
        if EPOCH_SUFFIX.search(key):
            raise ValueError(
                f"key {key!r} ends in the router's reserved epoch suffix "
                "('@e<n>', used to name migration epochs); rename the key"
            )
        pool = self.membership.pool_for(key)
        shard = self._build_shard(key, pool, epoch=0,
                                  initial_value=self.config.initial_value)
        self._shards[key] = shard
        if self.replicas is not None:
            self.replicas.ensure_group(key, shard)
        self._announce_shard(shard)
        return shard

    def ensure_shards(self, keys) -> None:
        """Eagerly instantiate shards for ``keys`` (e.g. before failure drills)."""
        for key in keys:
            self.shard(key)

    def _build_shard(self, key: str, pool: str, epoch: int,
                     initial_value: bytes) -> Shard:
        """Build an epoch on the kernel, born at ``kernel.now``."""
        config = self.config
        if initial_value != config.initial_value:
            config = dc_replace(config, initial_value=initial_value)
        system = LDSSystem(
            config,
            num_writers=self.writers_per_shard,
            num_readers=self.readers_per_shard,
            latency_model=self._latency_factory(pool, key),
            object_id=join_object_id(key, epoch),
            kernel=self.kernel,
        )
        shard = Shard(key=key, pool=pool, epoch=epoch, system=system)
        if self._trace is not None or self.operation_observers:
            # Pure observation: close root spans (and record the protocol
            # phase) and feed the completion observers when the shard
            # reports an operation complete.
            system.completion_hooks.append(
                lambda result, shard=shard: self._notify_completion(shard,
                                                                    result)
            )
        # A shard created while some of its pool's nodes are down must start
        # in the degraded state the pool is actually in.
        for node in self.membership.failed_nodes(pool):
            self._crash_slot(shard, node.role, node.index)
        return shard

    def _notify_completion(self, shard: Shard, result: OperationResult) -> None:
        """Fan one shard completion out to the trace and the observers."""
        if self._trace is not None:
            self._trace_completion(shard, result)
        for observer in self.operation_observers:
            observer(shard, result)

    def notify_replica_completion(self, operation) -> None:
        """Feed a replica-served read (already merged-form) to the observers."""
        for observer in self.operation_observers:
            observer(None, operation)

    def _trace_completion(self, shard: Shard, result: OperationResult) -> None:
        """Record the protocol phase and close the op's root span."""
        handle = self._op_handles.get((shard.object_id, result.op_id))
        if handle is None:
            # Internal traffic (migration copy reads) carries no handle.
            return
        self._trace.child_span(
            handle, f"protocol-{result.kind}", "protocol",
            result.invoked_at, result.responded_at,
            args={"op_id": result.op_id, "epoch": shard.epoch,
                  "pool": shard.pool},
        )
        self._trace.end_op(handle, result.responded_at,
                           args={"kind": result.kind, "tag": str(result.tag)})

    def _announce_shard(self, shard: Shard) -> None:
        """Fire creation hooks once the shard is registered and routable."""
        for hook in list(self.shard_created_hooks):
            hook(shard)

    def shard_counts(self) -> Dict[str, int]:
        """Live shard count per pool (pools without shards included)."""
        counts = {pool: 0 for pool in self.membership.pools}
        for shard in self._shards.values():
            counts[shard.pool] = counts.get(shard.pool, 0) + 1
        return counts

    def shard_balance(self) -> RingBalance:
        """Balance statistics of the current shard placement."""
        return RingBalance.from_counts(self.shard_counts())

    def storage_by_pool(self) -> Dict[str, float]:
        """Total (L1 + L2) normalised storage cost hosted on each pool."""
        totals = {pool: 0.0 for pool in self.membership.pools}
        for shard in self._shards.values():
            storage = shard.system.storage
            totals[shard.pool] = (totals.get(shard.pool, 0.0)
                                  + storage.l1_cost + storage.l2_cost)
        return totals

    # -- invoking operations -----------------------------------------------------

    def _new_handle(self, key: str) -> str:
        self._handle_counter += 1
        return f"{key}/op-{self._handle_counter}"

    def check_workload_clients(self, workload) -> None:
        """Reject a workload addressing more per-shard clients than exist.

        Catching this up front turns a bare ``IndexError`` at an arbitrary
        virtual arrival time into an immediate, named error.  Duck-typed
        over anything iterable with ``operations`` carrying ``kind`` /
        ``client_index``.
        """
        for operation in workload.operations:
            limit = (self.writers_per_shard if operation.kind == WRITE
                     else self.readers_per_shard)
            if operation.client_index >= limit:
                kind = "writers" if operation.kind == WRITE else "readers"
                raise ValueError(
                    f"workload {workload.description!r} uses {operation.kind} "
                    f"client index {operation.client_index}, but each shard "
                    f"has only {limit} {kind}; raise writers_per_shard/"
                    f"readers_per_shard"
                )

    def invoke_write(self, key: str, value: bytes, writer: Union[int, str] = 0,
                     at: Optional[float] = None,
                     session: Optional[str] = None,
                     via: Optional[str] = None) -> str:
        """Queue a write on ``key``'s shard; returns an operation handle.

        ``session`` names the logical client session the operation belongs
        to; it is preserved end to end into the merged history's
        ``Operation.session`` field for cross-shard session auditing.

        With replica groups, ``via`` names the pool the write arrived at;
        a write arriving at a follower pool (explicitly, or because the
        configured ``write_ingress`` discipline routes it there) is
        forwarded to the primary with the forwarding hop charged on the
        kernel clock (see :mod:`repro.cluster.replicas`).
        """
        if via is not None and self.replicas is None:
            raise ValueError(
                "write ingress routing (via=...) needs replica groups; "
                "configure ReplicationConfig(r>1)"
            )
        if self.replicas is not None and (
                via is not None
                or self.replicas.config.write_ingress != "primary"):
            return self.replicas.invoke_write(key, value, writer=writer,
                                              at=at, session=session, via=via)
        return self._queue_write(key, value, writer=writer, at=at,
                                 session=session)

    def _queue_write(self, key: str, value: bytes,
                     writer: Union[int, str] = 0,
                     at: Optional[float] = None,
                     session: Optional[str] = None,
                     handle: Optional[str] = None) -> str:
        """Queue a write on the primary shard.

        ``handle`` re-points an existing replica-routed handle at the
        primary epoch (used when a forwarded write reaches the primary).
        """
        shard = self.shard(key)
        if handle is None:
            handle = self._new_handle(key)
            if self._trace is not None:
                self._trace.begin_op(
                    handle, WRITE, key,
                    at if at is not None else self.kernel.now,
                    args={"writer": writer, "session": session},
                )
        shard.pending.append(_PendingOp(handle=handle, kind=WRITE, client=writer,
                                        at=at, value=bytes(value),
                                        session=session))
        return handle

    def invoke_read(self, key: str, reader: Union[int, str] = 0,
                    at: Optional[float] = None,
                    session: Optional[str] = None) -> str:
        """Queue a read on ``key``'s shard; returns an operation handle.

        With replica groups enabled, the read first passes the coordinator's
        routing policy and may be served by a follower store instead of the
        primary's protocol read (see :mod:`repro.cluster.replicas`).
        """
        if self.replicas is not None:
            return self.replicas.invoke_read(key, reader=reader, at=at,
                                             session=session)
        return self._queue_read(key, reader=reader, at=at, session=session)

    def _queue_read(self, key: str, reader: Union[int, str] = 0,
                    at: Optional[float] = None,
                    session: Optional[str] = None,
                    handle: Optional[str] = None) -> str:
        """Queue a protocol read on the primary shard.

        ``handle`` re-points an existing replica-routed handle at the
        primary epoch (used for every read the replica layer sends to the
        primary).
        """
        shard = self.shard(key)
        if handle is None:
            handle = self._new_handle(key)
            if self._trace is not None:
                self._trace.begin_op(
                    handle, READ, key,
                    at if at is not None else self.kernel.now,
                    args={"reader": reader, "session": session},
                )
        shard.pending.append(_PendingOp(handle=handle, kind=READ, client=reader,
                                        at=at, session=session))
        return handle

    # -- workload arrivals ------------------------------------------------------------

    def add_workload(self, workload, start: float = 0.0,
                     on_handle=None) -> int:
        """Schedule a keyed workload's operations as kernel arrival events.

        This is the single implementation of arrival semantics, shared by
        scenario workload phases and the keyed workload runner.  Each
        operation is injected into its shard -- creating the shard at that
        instant if the key is new -- when the global clock reaches
        ``start + operation.at``.  A window that
        already passed is shifted forward *uniformly* (preserving relative
        spacing, hence per-client well-formedness, exactly like the
        per-shard batch ratchet).  Every arrival is stamped with the operation's
        session identity (``ScheduledOperation.session_id``), so merged
        histories carry the cross-shard client sessions the session
        auditor groups by.  ``on_handle(kind, handle)`` is invoked for
        every injected operation so callers can collect handles for cost
        reporting.  Returns the number of arrivals scheduled.

        One arrival is queued at a time, pushing the next as it fires, but
        every arrival's sequence number is taken now, so ties break as if
        all were queued now (the sampler counts them all as queued).
        """
        self.check_workload_clients(workload)
        operations = workload.sorted_operations()
        # Validate before scheduling anything so a bad workload is
        # all-or-nothing instead of leaving stranded arrival events.
        for operation in operations:
            if operation.key is None:
                raise ValueError(
                    "the global kernel routes by key; every operation of the "
                    "workload must carry one"
                )
        if not operations:
            return 0
        simulator = self.kernel.simulator
        floor = simulator.now
        start = max(start, floor - operations[0].at)
        arrivals = enumerate(operations, simulator.reserve(len(operations)))
        self.arrivals_waiting += len(operations)

        def push() -> None:
            for sequence, operation in arrivals:  # the next one, if any
                # max() guards against floating-point rounding pushing the
                # earliest shifted arrival epsilon below the global clock.
                at = max(start + operation.at, floor)
                self.arrivals_waiting -= 1
                simulator.schedule_reserved(
                    at, sequence, lambda operation=operation, at=at:
                        self._arrive(operation, at, on_handle, push))
                return

        push()
        return len(operations)

    def _arrive(self, operation, at: float, on_handle, push_next) -> None:
        push_next()
        session = operation.session_id
        if operation.kind == WRITE:
            handle = self.invoke_write(operation.key, operation.value or b"",
                                       writer=operation.client_index, at=at,
                                       session=session)
        else:
            handle = self.invoke_read(operation.key,
                                      reader=operation.client_index, at=at,
                                      session=session)
        self.flush_key(operation.key)
        self.stats.arrivals += 1
        if on_handle is not None:
            on_handle(operation.kind, handle)

    # -- batching / execution ---------------------------------------------------------

    def frozen(self, key: str) -> bool:
        """True while ``key``'s operations must queue at the router: its
        shard is migrating, or its replica group is failing over.  The
        next epoch flushes them."""
        return key in self._handoffs

    def _flush_shard(self, shard: Shard) -> int:
        """Inject the shard's queued operations into its system in one batch."""
        if not shard.pending or self.frozen(shard.key):
            return 0
        batch = sorted(shard.pending,
                       key=lambda op: op.at if op.at is not None else -1.0)
        shard.pending = []
        now = self.kernel.now
        # The clock only moves forward.  When a batch's nominal window has
        # already passed (operations a migration or failover kept queued,
        # or a fresh workload after a run to quiescence), shift the *whole
        # batch* forward uniformly: relative spacing between operations --
        # and therefore per-client well-formedness -- is preserved, unlike
        # clamping each one to "now".
        nominal = [op.at for op in batch if op.at is not None]
        if nominal and min(nominal) + shard.time_shift < now:
            shard.time_shift = now - min(nominal)
        for op in batch:
            # max() guards against floating-point rounding pushing the
            # earliest shifted time epsilon below the clock.
            at = None if op.at is None else max(op.at + shard.time_shift, now)
            op_id = shard.system._invoke(op.client, op.kind, op.value, at,
                                         op.session)
            shard.op_ids[op.handle] = op_id
            if self._trace is not None:
                self._op_handles[(shard.object_id, op_id)] = op.handle
        self.stats.batches_flushed += 1
        self.stats.operations_flushed += len(batch)
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        return len(batch)

    def flush(self) -> int:
        """Flush every shard's pending batch; returns operations injected."""
        return sum(self._flush_shard(shard) for shard in self._shards.values())

    def flush_key(self, key: str) -> int:
        """Flush one key's pending batch (used by kernel arrival events)."""
        shard = self._shards.get(key)
        return 0 if shard is None else self._flush_shard(shard)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Flush all batches, then pump the merged global event queue to
        quiescence."""
        self.flush()
        self.kernel.run_until_idle(max_events=max_events)

    # -- synchronous convenience API ------------------------------------------------

    def write(self, key: str, value: bytes,
              writer: Union[int, str] = 0) -> OperationResult:
        """Write ``key`` and run its shard until the write completes."""
        handle = self.invoke_write(key, value, writer=writer)
        return self._run_handle(handle)

    def read(self, key: str, reader: Union[int, str] = 0) -> OperationResult:
        """Read ``key`` and run its shard until the read completes."""
        handle = self.invoke_read(key, reader=reader)
        return self._run_handle(handle)

    def _run_handle(self, handle: str) -> OperationResult:
        key = handle.rpartition("/op-")[0]
        shard = self._shards[key]
        self._flush_shard(shard)
        # Other shards' events must keep flowing while we wait, so pump the
        # merged queue instead of this shard alone.
        # Resolution goes through :meth:`result`, which also covers
        # follower-served and quorum replica reads.
        found = self.kernel.run_until(lambda: self.result(handle))
        if found is None:
            raise self._shards[key].system.incomplete_error(
                f"operation {handle} did not complete within the event budget"
                if self.kernel.pending_work() else
                f"operation {handle} did not complete (global queue empty)")
        return found

    # -- results and costs ---------------------------------------------------------------

    def result(self, handle: str) -> Optional[OperationResult]:
        """The completed result behind a handle, or None if still pending."""
        flushed = self._flushed_into(handle)
        if flushed is None:
            return None if self.replicas is None else self.replicas.result(handle)
        record = flushed.system.recorder.completed.get(flushed.op_ids[handle])
        return None if record is None else OperationResult.of(record)

    def _flushed_into(self, handle: str) -> Optional[Shard]:
        """The epoch ``handle`` was flushed into, newest first; None while
        it is queued, or served by the replica layer."""
        shard = self._shards.get(handle.rpartition("/op-")[0])
        if shard is None:
            raise KeyError(f"unknown operation handle {handle!r}")
        for epoch in range(shard.epoch, -1, -1):
            flushed = self._retired.get((shard.key, epoch), shard)
            if handle in flushed.op_ids:
                return flushed
        return None

    def operation_cost(self, handle: str) -> float:
        """Normalised communication cost attributed to one routed operation."""
        flushed = self._flushed_into(handle)
        if flushed is not None:
            return flushed.system.operation_cost(flushed.op_ids[handle])
        return 0.0 if self.replicas is None else \
            self.replicas.operation_cost(handle)

    @property
    def communication_cost(self) -> float:
        """Total normalised communication cost across all shards and epochs
        (replication fan-out and follower-read transfers included)."""
        replica_cost = 0.0 if self.replicas is None else self.replicas.total_cost
        retired_cost = sum(shard.system.communication_cost
                           for shard in self._retired.values())
        return retired_cost + replica_cost + sum(
            shard.system.communication_cost for shard in self._shards.values()
        )

    # -- histories and atomicity -----------------------------------------------------------

    def history(self, global_clock: bool = True) -> History:
        """All operations across all shards and epochs, in one merged history.

        Operation and client ids are qualified with the epoch's object id so
        the merged history stays collision-free and well-formed (every shard
        has clients named ``writer-0`` etc.).  The *session* identity is
        deliberately not qualified: it is the cross-shard client identity
        each record carries from its invocation, so the session
        auditor can follow one logical client across keys, shards and
        migration epochs.  The merged history is meant for latency /
        throughput summaries and session auditing, so it leaves the
        hand-off reads out; atomicity is checked per epoch, with its
        hand-off read, by :meth:`check_atomicity` because each epoch has
        its own initial value.

        Timestamps are the epochs' recorders' own: every epoch runs on the
        kernel's one queue, so operations from different shards and
        epochs (and follower-served reads, stamped by the kernel) are
        comparable as they stand.  ``global_clock`` is accepted and
        ignored (there is one clock) only because
        ``benchmarks/lds_bench/repetition.py`` still passes it; ROADMAP
        item 1 (ii) retires it.
        """
        merged = History(initial_value=self.config.initial_value)
        for history in self._all_histories():
            for op in history.operations:
                if (op.object_id, op.op_id) in self._internal_ops:
                    continue
                merged.add(dc_replace(
                    op,
                    op_id=f"{op.object_id}/{op.op_id}",
                    client_id=f"{op.object_id}/{op.client_id}",
                ))
        if self.replicas is not None:
            # Follower-served reads carry their session identity already
            # and are kept out of the shard histories so per-epoch
            # atomicity stays primary-only.
            for history in self.replicas.histories():
                for op in history.operations:
                    merged.add(op)
        return merged

    def _all_histories(self) -> List[History]:
        histories: List[History] = []
        for key in sorted(self._shards):
            shard = self._shards[key]
            histories.extend(shard.retired_histories)
            histories.append(shard.system.history())
        return histories

    def check_atomicity(self) -> Optional[AtomicityViolation]:
        """Check every epoch of every key as one register history.

        Each retired epoch is checked with its hand-off read, so a
        completed write the carried value misses is a stale read, and the
        next epoch must start from exactly the value that read returned.
        Returns the first violation, naming the key and the epoch.
        """
        # Audit-only code loads when an audit runs.
        from repro.consistency.linearizability import (
            AtomicityViolation, check_register)
        for key in sorted(self._shards):
            shard = self._shards[key]
            epochs = shard.retired_histories + [shard.system.history()]
            for epoch, history in enumerate(epochs):
                violation = check_register(
                    [op for op in history if op.responded_at is not None],
                    history.initial_value)
                if violation is None and epoch < shard.epoch:
                    handoff = shard.handoffs[epoch]
                    if handoff.value != epochs[epoch + 1].initial_value:
                        violation = AtomicityViolation(
                            "the next epoch does not start from the "
                            "hand-off read's value", (handoff.op_id,))
                if violation is not None:
                    return AtomicityViolation(
                        f"{key} epoch {epoch}: {violation.description}",
                        violation.operations)
        return None

    def incomplete_operations(self) -> int:
        """Number of invoked-but-unfinished operations across the cluster
        (operations queued behind a freeze, replica reads in flight or
        stranded, and writes still travelling a forwarding hop included)."""
        replica_pending = (0 if self.replicas is None
                           else self.replicas.incomplete_reads()
                           + self.replicas.in_flight_forwards())
        queued = sum(len(shard.pending) for shard in self._shards.values())
        return replica_pending + queued + sum(
            1 for history in self._all_histories()
            for op in history if not op.is_complete
        )

    # -- membership reactions ------------------------------------------------------------

    def _on_membership_event(self, event: MembershipEvent) -> None:
        if event.kind == FAIL:
            for shard in self._shards.values():
                if shard.pool == event.node.pool:
                    self._crash_slot(shard, event.node.role, event.node.index,
                                     at=event.time)

    def _crash_slot(self, shard: Shard, role: str, index: int,
                    at: Optional[float] = None) -> None:
        """Crash one server slot of a shard at time ``at``, or right away
        when the clock already reached it."""
        when = at if at is not None and at > self.kernel.now else None
        if role == L1_ROLE:
            if index < self.config.n1:
                shard.system.crash_l1(index, at=when)
        else:
            if index < self.config.n2:
                shard.system.crash_l2(index, at=when)

    def shards_on_pool(self, pool: str) -> List[Shard]:
        """Live shards hosted on ``pool`` in deterministic (key) order."""
        return [self._shards[key] for key in sorted(self._shards)
                if self._shards[key].pool == pool]

    # -- rebalancing -----------------------------------------------------------------------

    def pending_rebalance(self, reason: str = "",
                          time: Optional[float] = None) -> RebalancePlan:
        """The deterministic plan aligning current shards with the ring,
        stamped ``time`` (the current global time unless given).

        With replica groups the plan is replica-aware: primary moves become
        shard migrations exactly as before, and changes to the follower
        sets (``HashRing.nodes_for`` shifting under a join/leave) are
        carried as :class:`~repro.cluster.placement.FollowerChange` entries
        executed by the coordinator (drop immediately, provision after the
        configured copy delay).
        """
        if time is None:
            time = self.kernel.now
        if self.replicas is not None:
            before = self.replicas.current_placement()
            after = self.replicas.desired_placement()
            return diff_replica_placements(before, after, reason=reason,
                                           time=time)
        before = {key: shard.pool for key, shard in self._shards.items()}
        after = self.membership.placement(before)
        return diff_placements(before, after, reason=reason, time=time)

    def rebalance(self, reason: str = "",
                  time: Optional[float] = None) -> RebalancePlan:
        """Compute the pending plan and migrate every moved shard.

        ``time`` stamps the plan and starts the followers' copy delay; it
        defaults to the current global time (a plan stamped in the global
        past would skip the delay).

        With replica groups, moves and follower changes of a key that is
        failing over are skipped: a migration drains the source with a
        protocol copy-read, which the dead primary pool can never answer (a
        pool kill freezes its groups synchronously, so every such key is
        frozen by the time a rebalance can run), and dropping the group's
        only caught-up follower would strand the promotion.  The failover
        owns those keys -- promotion seats a live primary, and a later
        rebalance realigns it with the ring.  Pools that merely *left*
        still drain normally.
        """
        plan = self.pending_rebalance(reason=reason, time=time)
        for move in plan.moves:
            handoff = self._handoffs.get(move.key)
            if handoff is not None and handoff.move is None:
                continue
            self.migrate(move)
            # The key's follower changes wait for its new epoch: until then
            # its primary still sits on the move's source.
            handoff = self._handoffs[move.key]
            handoff.follower_changes = [change for change
                                        in plan.follower_changes
                                        if change.key == move.key]
            handoff.planned_at = plan.time
        if self.replicas is not None:
            self.replicas.apply_follower_changes(
                [change for change in plan.follower_changes
                 if change.key not in self._handoffs], plan.time)
        return plan

    def migrate(self, move: ShardMove) -> Shard:
        """Start moving one shard to a new pool; returns the retiring shard.

        The move is a kernel activity.  The key freezes (its operations
        queue at the router) while the retiring epoch finishes what it has
        in flight; then a copy read -- a real protocol read, charged to the
        epoch like any other -- fetches its value.  At the read's response
        the new epoch starts on the target pool holding that value, and the
        queued operations flush into it.  A later move of a key that is
        still migrating re-targets the migration; a key that is failing
        over cannot migrate.
        """
        shard = self._shards[move.key]
        if shard.pool != move.source:
            raise ValueError(
                f"shard {move.key!r} lives on {shard.pool!r}, not {move.source!r}"
            )
        underway = self._handoffs.get(move.key)
        if underway is not None:
            if underway.move is None:
                raise ValueError(
                    f"shard {move.key!r} is failing over from {shard.pool!r}; "
                    "the failover carries it to a live pool")
            underway.move = move
            return shard
        self._flush_shard(shard)
        handoff = self._handoffs[move.key] = _Handoff(shard, move)
        shard.system.completion_hooks.append(
            lambda result: self._advance_migration(handoff, result))
        self._advance_migration(handoff)
        return shard

    def _advance_migration(self, handoff: _Handoff,
                           result: Optional[OperationResult] = None) -> None:
        """Step a migration at each completion in its retiring epoch: issue
        the copy read once nothing is in flight, finish at its response."""
        if self._handoffs.get(handoff.shard.key) is not handoff:
            return  # a failover took the hand-off over
        system = handoff.shard.system
        if handoff.copy_read is None:
            if not system.operations_in_flight:
                handoff.copy_read = system.invoke_read(reader=0)
                # The copy read stays in the epoch's own history (it is
                # real protocol traffic and the epoch's hand-off read) but
                # is internal: merged histories leave it out.
                self._internal_ops.add((system.object_id, handoff.copy_read))
        elif result is not None and result.op_id == handoff.copy_read:
            move = handoff.move
            history = system.history()
            read = next(op for op in history if op.op_id == result.op_id)
            replacement = self._retire_epoch(handoff, history, read,
                                             move.target)
            self.stats.migrations += 1
            self.migration_log.append(
                (self.kernel.now, move.key, move.source, move.target))
            if self.replicas is not None:
                self.replicas.apply_follower_changes(
                    handoff.follower_changes, handoff.planned_at)
            self._flush_shard(replacement)

    def begin_failover(self, key: str, down_at: float) -> None:
        """Freeze ``key``: its primary pool was reported down at ``down_at``.
        This replaces a migration under way, whose copy read the dead
        source can never answer; :meth:`failover_shard` thaws the key."""
        self._handoffs[key] = _Handoff(self._shards[key], down_at=down_at)

    def failover_shard(self, key: str, target_pool: str,
                       carried_value: bytes, tag: Tag) -> Shard:
        """Promote ``key``'s shard onto ``target_pool`` after primary loss.

        The twin of a migration for a *dead* source: the retiring epoch
        cannot drain (its pool is down, so in-flight operations stay
        incomplete forever -- which is the truth of a crash), and the
        carried value comes from the caught-up follower store rather than
        a protocol copy read.  The retiring epoch records that carry as its
        hand-off read, invoked when the pool was reported down and
        answering now with ``carried_value`` at ``tag``.  The operations
        the freeze kept queued flush into the new epoch.
        """
        handoff = self._handoffs[key]
        shard = handoff.shard
        read = Operation(
            op_id=FAILOVER_HANDOFF, client_id=FAILOVER_HANDOFF, kind=READ,
            object_id=shard.object_id, value=carried_value,
            invoked_at=handoff.down_at, responded_at=self.kernel.now, tag=tag)
        self._internal_ops.add((shard.object_id, FAILOVER_HANDOFF))
        history = shard.system.history()
        history.add(read)
        replacement = self._retire_epoch(handoff, history, read, target_pool)
        self._flush_shard(replacement)
        return replacement

    def _retire_epoch(self, handoff: _Handoff, history: History,
                      read: Operation, pool: str) -> Shard:
        """Archive the hand-off's epoch as ``history``, which holds the
        hand-off ``read``, and start the next one on ``pool``, born now and
        holding the value that read returned.  The key thaws: its queued
        operations move across with their handles, each with a
        ``freeze-wait`` span from its nominal time, and the replica group
        adopts the new epoch.  The caller flushes."""
        shard = handoff.shard
        key = shard.key
        del self._handoffs[key]
        self._retired[(key, shard.epoch)] = shard
        replacement = self._build_shard(key, pool, epoch=shard.epoch + 1,
                                        initial_value=read.value)
        replacement.retired_histories = shard.retired_histories + [history]
        replacement.handoffs = shard.handoffs + [read]
        replacement.pending, shard.pending = shard.pending, []
        for op in replacement.pending:
            if self._trace is not None and op.at is not None:
                self._trace.child_span(op.handle, "freeze-wait", "router",
                                       op.at, self.kernel.now,
                                       args={"promoted": pool})
        self._shards[key] = replacement
        self._announce_shard(replacement)
        if self.replicas is not None:
            self.replicas.adopt_epoch(key, replacement, read.value)
        return replacement


__all__ = ["ObjectRouter", "Shard", "RouterStats"]
