"""The object router: one ``write/read`` front-end over many LDS shards.

:class:`ObjectRouter` exposes the same driving API style as
:class:`~repro.core.system.LDSSystem` -- ``invoke_write`` / ``invoke_read``
/ ``run_until_idle`` / ``history`` / ``operation_cost`` -- but keyed by
*object key*.  Each key is placed on a server pool by the membership's
consistent-hash ring, and the router lazily instantiates one full LDS
deployment (an :class:`LDSSystem` with its own
:class:`~repro.net.simulator.Simulator`) per key on that pool, exactly the
way :class:`~repro.core.multi_object.MultiObjectSystem` drives independent
instances over a shared virtual timeline.

Operations are *batched per shard*: invocations are queued on the target
shard and injected into its simulator in one pass per flush, so a workload
touching thousands of keys performs one dispatch walk per shard instead of
one per operation.  ``run_until_idle`` flushes automatically.

Every shard simulator is registered as an event source of the router's
:class:`~repro.sim.kernel.GlobalScheduler`, and ``run_until_idle`` pumps
the kernel's merged event queue, so operations, repairs and migrations on
different shards interleave on one monotonic global clock.  There is one
time domain: a shard's simulator is created with its clock at the global
instant of the shard's birth, so its recorder, results and storage samples
carry global timestamps and nothing is ever translated.  A shard still has
its own *queue*, and therefore its own clock reading, which lags the
kernel's while the shard is idle and runs ahead of it while
:meth:`migrate` drains the shard inline; :meth:`shard_now` /
:meth:`schedule_on_shard` are the accessors that account for that.

Failures and rebalancing:

* when the membership reports a node **failure**, the router crashes the
  corresponding server slot (same layer, same index) in every shard hosted
  on that pool; repair is *not* inline -- it is the job of the
  :class:`~repro.cluster.repair.RepairScheduler`;
* when a pool **joins or leaves** the ring, the router computes a
  deterministic :class:`~repro.cluster.placement.RebalancePlan` over its
  tracked keys and (on :meth:`rebalance`) migrates each moved shard: the
  source shard is drained, its current value is fetched with a real
  protocol read (the migration copy), and a fresh instance is started on
  the target pool seeded with that value.  Every migration starts a new
  *epoch* for the key; atomicity is checked per epoch (the carried value
  is the new epoch's legitimate initial value), and the drain barrier
  guarantees the real-time order between epochs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Dict, List, Optional, Union

from repro.cluster.membership import FAIL, L1_ROLE, Membership, MembershipEvent
from repro.cluster.placement import (
    RebalancePlan,
    ShardMove,
    diff_placements,
    diff_replica_placements,
)
from repro.cluster.replicas import (
    REPLICA_EPOCH,
    ReadRoutingPolicy,
    ReplicaCoordinator,
    ReplicationConfig,
)
from repro.cluster.ring import RingBalance, stable_hash
from repro.consistency.history import History, READ, WRITE
from repro.consistency.linearizability import (
    AtomicityViolation,
    check_atomicity_by_tags,
)
from repro.consistency.sessions import join_object_id
from repro.core.config import LDSConfig
from repro.core.results import OperationResult
from repro.core.system import LDSSystem
from repro.net.latency import BoundedLatencyModel, LatencyModel
from repro.net.simulator import Simulator
from repro.obs.registry import MetricsRegistry


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
class Shard:
    """A live LDS instance serving one object key on one pool."""

    key: str
    pool: str
    epoch: int
    system: LDSSystem
    #: The global instant the epoch's clock started at.
    born_at: float
    pending: List[_PendingOp] = field(default_factory=list)
    #: Histories of previous epochs (pre-migration), oldest first.
    retired_histories: List[History] = field(default_factory=list)
    #: Monotone shift applied to nominal workload times (grows when a
    #: batch arrives after its nominal window already passed).
    time_shift: float = 0.0

    @property
    def object_id(self) -> str:
        return self.system.object_id


class RouterStats:
    """Counters describing the router's batching, migration and (with
    replica groups) read-routing activity.

    Since the observability PR this is a *thin attribute view over the
    metrics registry* (:mod:`repro.obs.registry`): every counter lives as
    a ``router_*`` instrument on ``registry`` -- the shared telemetry
    registry when the cluster runs with one, a private registry otherwise
    -- so all router counters export through the registry's single
    collect/to_dict path.  The historical attribute API is preserved
    exactly: scalar counters read and assign like plain ints (``stats.
    arrivals += 1``), and the dict-shaped series (``reads_by_replica``,
    ``quorum_depths``) read as plain dicts and accept whole-dict
    assignment, backed by labeled counter families.

    Scalar counters (all monotone unless noted):

    * ``batches_flushed`` / ``operations_flushed`` / ``largest_batch``
      (a high-water gauge) / ``migrations``;
    * ``arrivals`` -- operations injected through kernel arrival events;
    * ``primary_reads`` -- reads routed to a group's primary (includes
      session-guard fallbacks and post-failover flushes); ``follower_reads``
      -- reads routed to follower stores.  Both count at dispatch time: a
      read stranded by a crash mid-flight stays counted as routed;
    * ``session_fallbacks`` -- follower choices overridden to the primary
      by the session guard; ``retired_fallbacks`` -- policy choices naming
      a pool without a live store, rerouted like a session fallback but
      counted apart so stale-policy behaviour is visible;
    * ``failover_deferrals`` -- primary-bound reads queued behind an
      in-progress failover;
    * ``quorum_reads`` -- reads resolved by quorum fan-out (each counts
      once however many legs it queried); ``read_repairs`` -- lagging
      stores caught up by quorum-merge read repair;
    * ``forwarded_writes`` -- writes that arrived at a non-primary pool
      and were forwarded (one hop on the kernel clock);
    * ``policy_choices`` / ``policy_honored`` -- reads for which the
      routing policy expressed a concrete choice / ... that the chosen
      replica actually served.

    Labeled families:

    * ``reads_by_replica`` -- reads routed per pool (primary and follower
      routes combined);
    * ``quorum_depths`` -- merged responses per quorum read (legs whose
      store died mid-flight never answer, so depth < read_quorum marks a
      degraded merge).
    """

    #: attribute name -> (metric suffix, gauge?) for the scalar counters.
    _SCALARS = {
        "batches_flushed": ("router_batches_flushed", False),
        "operations_flushed": ("router_operations_flushed", False),
        "largest_batch": ("router_largest_batch", True),
        "migrations": ("router_migrations", False),
        "arrivals": ("router_arrivals", False),
        "primary_reads": ("router_primary_reads", False),
        "follower_reads": ("router_follower_reads", False),
        "session_fallbacks": ("router_session_fallbacks", False),
        "retired_fallbacks": ("router_retired_fallbacks", False),
        "failover_deferrals": ("router_failover_deferrals", False),
        "quorum_reads": ("router_quorum_reads", False),
        "read_repairs": ("router_read_repairs", False),
        "forwarded_writes": ("router_forwarded_writes", False),
        "policy_choices": ("router_policy_choices", False),
        "policy_honored": ("router_policy_honored", False),
    }

    def __init__(self, registry=None) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self._registry = registry
        self._scalars = {}
        for attr, (metric, is_gauge) in self._SCALARS.items():
            make = registry.gauge if is_gauge else registry.counter
            self._scalars[attr] = make(metric)
        self._reads_by_replica = registry.counter(
            "router_reads_by_replica", labels=("pool",))
        self._quorum_depths = registry.counter(
            "router_quorum_depth", labels=("depth",))

    @property
    def registry(self):
        """The :class:`MetricsRegistry` the counters live on."""
        return self._registry

    # -- labeled families ---------------------------------------------------------

    @property
    def reads_by_replica(self) -> Dict[str, int]:
        return self._reads_by_replica.as_dict()

    @reads_by_replica.setter
    def reads_by_replica(self, mapping: Dict[str, int]) -> None:
        self._reads_by_replica.set_values(mapping)

    def count_replica_read(self, pool: str, amount: int = 1) -> None:
        """Count a read routed to ``pool`` (the hot-path increment)."""
        self._reads_by_replica.labels(pool=pool).inc(amount)

    @property
    def quorum_depths(self) -> Dict[int, int]:
        return self._quorum_depths.as_dict()

    @quorum_depths.setter
    def quorum_depths(self, mapping: Dict[int, int]) -> None:
        self._quorum_depths.set_values(mapping)

    def observe_quorum_depth(self, depth: int) -> None:
        """Count one quorum merge that gathered ``depth`` responses."""
        self._quorum_depths.labels(depth=depth).inc()

    # -- derived ------------------------------------------------------------------

    @property
    def mean_batch_size(self) -> float:
        if not self.batches_flushed:
            return 0.0
        return self.operations_flushed / self.batches_flushed

    @property
    def routed_reads(self) -> int:
        """Reads that went through the replica-group read router."""
        return self.primary_reads + self.follower_reads + self.quorum_reads

    @property
    def follower_read_fraction(self) -> float:
        """Share of routed reads served by followers (0.0 without replicas)."""
        routed = self.routed_reads
        return self.follower_reads / routed if routed else 0.0

    @property
    def policy_hit_rate(self) -> float:
        """Fraction of policy choices that were honored (not overridden)."""
        if not self.policy_choices:
            return 0.0
        return self.policy_honored / self.policy_choices

    def as_dict(self) -> Dict[str, object]:
        """A plain-dict snapshot of every counter (benchmarks, reports)."""
        out: Dict[str, object] = {attr: getattr(self, attr)
                                  for attr in self._SCALARS}
        out["reads_by_replica"] = self.reads_by_replica
        out["quorum_depths"] = self.quorum_depths
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scalars = ", ".join(f"{attr}={getattr(self, attr)}"
                            for attr in self._SCALARS)
        return f"RouterStats({scalars})"


def _scalar_view(attr: str) -> property:
    """An int-like property over one of RouterStats' registry instruments."""
    def getter(self):
        return self._scalars[attr].value

    def setter(self, value):
        # Assignment semantics (``stats.arrivals += 1`` and test seeding
        # both come through here): overwrite, don't re-add.
        self._scalars[attr]._set(value)

    return property(getter, setter)


for _attr in RouterStats._SCALARS:
    setattr(RouterStats, _attr, _scalar_view(_attr))
del _attr


#: Keys must not end in the router's own epoch suffix, or merged-history
#: object ids would be ambiguous (key 'a@e2' vs epoch 2 of key 'a') and the
#: session auditor's (key, epoch) parsing would fold unrelated keys together.
_EPOCH_SUFFIX_RE = re.compile(r"@e\d+$")


class ObjectRouter:
    """Routes keyed read/write operations to per-shard LDS instances."""

    def __init__(self, config: LDSConfig, membership: Membership, kernel, *,
                 writers_per_shard: int = 1, readers_per_shard: int = 1,
                 latency_factory: Optional[Callable[[str, str], LatencyModel]] = None,
                 replication: Optional[ReplicationConfig] = None,
                 read_policy: Union[str, ReadRoutingPolicy] = "primary",
                 telemetry=None) -> None:
        if writers_per_shard < 1 or readers_per_shard < 1:
            raise ValueError("each shard needs at least one writer and one reader "
                             "(reads also implement shard migration)")
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
        #: handle -> (key, epoch, lds op id); the op id is None until flushed.
        self._handles: Dict[str, List] = {}
        self._handle_counter = 0
        #: results / costs / histories of retired (migrated-away) epochs.
        self._archived_results: Dict[tuple, Dict[str, OperationResult]] = {}
        self._archived_costs: Dict[tuple, Dict[str, float]] = {}
        self._retired_comm_cost = 0.0
        #: (object_id, op_id) of internal migration-copy reads; excluded
        #: from the merged history so workload statistics only count
        #: foreground operations.
        self._internal_ops: set = set()
        #: (object_id, op_id) -> session id.  Sessions are a *cluster-level*
        #: identity (one logical client spanning keys, shards and epochs);
        #: the per-shard systems know nothing about them, so the router
        #: records the mapping at flush time and re-attaches it when
        #: histories are merged.
        self._op_sessions: Dict[tuple, str] = {}
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
        #: The :class:`~repro.obs.telemetry.Telemetry` facade, or None.
        #: Stats always register on its registry when present, so every
        #: router counter exports through the one telemetry path.
        self.telemetry = telemetry
        #: The span sink: the trace recorder, the latency tracker, or a
        #: fanout over both -- all present the same four-method surface.
        self._trace = telemetry.op_sink() if telemetry is not None else None
        self.stats = RouterStats(
            registry=telemetry.registry if telemetry is not None else None
        )
        #: (object_id, op_id) -> handle, recorded at flush while tracing so
        #: shard completion hooks can close the right root span.
        self._op_handles: Dict[tuple, str] = {}
        #: The :class:`~repro.sim.kernel.GlobalScheduler` every shard
        #: simulator registers with; the one clock the cluster runs on.
        self.kernel = kernel
        #: (global time, key, source_pool, target_pool) per migration.
        self.migration_log: List[tuple] = []
        #: Replica-group coordinator (None when replication is off, i.e.
        #: r <= 1 -- the pre-replica single-copy behaviour, bit for bit).
        self.replicas: Optional[ReplicaCoordinator] = None
        if replication is not None and replication.r > 1:
            self.replicas = ReplicaCoordinator(self, replication,
                                               read_policy=read_policy)
        membership.subscribe(self._on_membership_event)

    # -- global kernel ---------------------------------------------------------

    def shard_now(self, shard: Shard) -> float:
        """The shard's own clock reading: the time of the last event its
        queue ran.  It lags ``kernel.now`` while the shard is idle and
        runs ahead of it during :meth:`migrate`'s inline drain, so it is
        "now" only for code running inside one of the shard's events."""
        return shard.system.simulator.now  # simlint: disable=SD03 -- this *is* the sanctioned accessor

    def schedule_on_shard(self, shard: Shard, at: float, callback) -> None:
        """Schedule a callback on a shard's queue at time ``at`` (clamped
        to the shard's clock when that already passed ``at``)."""
        simulator = shard.system.simulator
        effective = max(at, simulator.now)
        if effective > at:
            sanitizer = self.kernel.sanitizer
            if sanitizer is not None:
                sanitizer.note_clamp(
                    "shard", f"shard:{shard.object_id}",
                    requested=at, effective=effective)
        simulator.schedule_at(effective, callback)

    # -- shard management -----------------------------------------------------

    @property
    def shards(self) -> Dict[str, Shard]:
        return dict(self._shards)

    def shard(self, key: str) -> Shard:
        """The shard serving ``key``, created on first use."""
        existing = self._shards.get(key)
        if existing is not None:
            return existing
        if _EPOCH_SUFFIX_RE.search(key):
            raise ValueError(
                f"key {key!r} ends in the router's reserved epoch suffix "
                "('@e<n>', used to name migration epochs); rename the key"
            )
        pool = self.membership.pool_for(key)
        shard = self._build_shard(key, pool, epoch=0,
                                  initial_value=self.config.initial_value,
                                  born_at=self.kernel.now)
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
                     initial_value: bytes, born_at: float) -> Shard:
        """Build an epoch whose clock starts at the global instant
        ``born_at`` and register its queue with the kernel."""
        config = self.config
        if initial_value != config.initial_value:
            config = dc_replace(config, initial_value=initial_value)
        system = LDSSystem(
            config,
            num_writers=self.writers_per_shard,
            num_readers=self.readers_per_shard,
            latency_model=self._latency_factory(pool, key),
            object_id=join_object_id(key, epoch),
            simulator=Simulator(start=born_at),
        )
        shard = Shard(key=key, pool=pool, epoch=epoch, system=system,
                      born_at=born_at)
        self.kernel.register_simulator(system.simulator,
                                       name=f"shard:{shard.object_id}")
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

    def _new_handle(self, key: str, epoch: int) -> str:
        self._handle_counter += 1
        handle = f"{key}/op-{self._handle_counter}"
        self._handles[handle] = [key, epoch, None]
        return handle

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
            handle = self._new_handle(key, shard.epoch)
            if self._trace is not None:
                self._trace.begin_op(
                    handle, WRITE, key,
                    at if at is not None else self.shard_now(shard),
                    args={"writer": writer, "session": session},
                )
        else:
            self._handles[handle][1] = shard.epoch
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
        primary epoch (used for session-guard fallbacks and post-failover
        flushes of deferred reads).
        """
        shard = self.shard(key)
        if handle is None:
            handle = self._new_handle(key, shard.epoch)
            if self._trace is not None:
                self._trace.begin_op(
                    handle, READ, key,
                    at if at is not None else self.shard_now(shard),
                    args={"reader": reader, "session": session},
                )
        else:
            self._handles[handle][1] = shard.epoch
        shard.pending.append(_PendingOp(handle=handle, kind=READ, client=reader,
                                        at=at, session=session))
        return handle

    # -- workload arrivals ------------------------------------------------------------

    def add_workload(self, workload, start: float = 0.0,
                     on_handle=None) -> int:
        """Schedule a keyed workload's operations as kernel arrival events.

        This is the single implementation of arrival semantics, shared by
        :class:`~repro.sim.harness.ClusterSimulation` and the keyed
        workload runner.  Each operation is injected into its shard --
        creating the shard at that instant if the key is new -- when the
        global clock reaches ``start + operation.at``.  A window that
        already passed is shifted forward *uniformly* (preserving relative
        spacing, hence per-client well-formedness, exactly like the
        per-shard batch ratchet).  Every arrival is stamped with the operation's
        session identity (``ScheduledOperation.session_id``), so merged
        histories carry the cross-shard client sessions the session
        auditor groups by.  ``on_handle(kind, handle)`` is invoked for
        every injected operation so callers can collect handles for cost
        reporting.  Returns the number of arrivals scheduled.
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
        if operations:
            start = max(start, self.kernel.now - operations[0].at)
        for operation in operations:
            # max() guards against floating-point rounding pushing the
            # earliest shifted arrival epsilon below the global clock.
            at = max(start + operation.at, self.kernel.now)
            self.kernel.schedule_at(
                at, lambda operation=operation, at=at:
                    self._arrive(operation, at, on_handle)
            )
        return len(operations)

    def _arrive(self, operation, at: float, on_handle=None) -> None:
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

    def _flush_shard(self, shard: Shard) -> int:
        """Inject the shard's queued operations into its simulator in one batch."""
        if not shard.pending:
            return 0
        if self.replicas is not None and self.replicas.frozen(shard.key):
            # The group is failing over: primary-bound operations stay
            # queued until the promoted epoch flushes them.
            return 0
        batch = sorted(shard.pending,
                       key=lambda op: op.at if op.at is not None else -1.0)
        shard.pending = []
        now = shard.system.simulator.now  # simlint: disable=SD03 -- the batch ratchet needs the owned shard's own clock reading, lag included
        # A shard's clock only moves forward.  When a batch's nominal window
        # has already passed (e.g. a fresh workload on a shard that just ran
        # to quiescence), shift the *whole batch* forward uniformly: relative
        # spacing between operations -- and therefore per-client
        # well-formedness -- is preserved, unlike clamping each one to "now".
        nominal = [op.at for op in batch if op.at is not None]
        if nominal and min(nominal) + shard.time_shift < now:
            shard.time_shift = now - min(nominal)
        for op in batch:
            # max() guards against floating-point rounding pushing the
            # earliest shifted time epsilon below the shard clock.
            at = None if op.at is None else max(op.at + shard.time_shift, now)
            if op.kind == WRITE:
                op_id = shard.system.invoke_write(op.value, writer=op.client,
                                                  at=at)
            else:
                op_id = shard.system.invoke_read(reader=op.client, at=at)
            self._handles[op.handle][2] = op_id
            if op.session is not None:
                self._op_sessions[(shard.object_id, op_id)] = op.session
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
        key, _epoch, _ = self._handles[handle]
        shard = self._shards[key]
        self._flush_shard(shard)
        # Other shards' events must keep flowing while we wait, so pump the
        # merged queue instead of this shard alone.
        # Resolution goes through :meth:`result`, which also covers
        # follower-served and failover-deferred replica reads.
        executed = 0
        while True:
            found = self.result(handle)
            if found is not None:
                return found
            if not self.kernel.step():
                raise RuntimeError(
                    f"operation {handle} did not complete (global queue empty)"
                )
            executed += 1
            if executed > 10_000_000:
                raise RuntimeError(
                    f"operation {handle} did not complete within the event budget"
                )

    # -- results and costs ---------------------------------------------------------------

    def result(self, handle: str) -> Optional[OperationResult]:
        """The completed result behind a handle, or None if still pending."""
        key, epoch, op_id = self._resolve(handle)
        if epoch == REPLICA_EPOCH:
            return self.replicas.result(handle)
        if op_id is None:
            return None
        shard = self._shards.get(key)
        if shard is not None and shard.epoch == epoch:
            found = shard.system.results.get(op_id)
            if found is not None:
                return found
        return self._archived_results.get((key, epoch), {}).get(op_id)

    def _resolve(self, handle: str) -> tuple:
        entry = self._handles.get(handle)
        if entry is None:
            raise KeyError(f"unknown operation handle {handle!r}")
        return entry[0], entry[1], entry[2]

    def operation_cost(self, handle: str) -> float:
        """Normalised communication cost attributed to one routed operation."""
        key, epoch, op_id = self._resolve(handle)
        if epoch == REPLICA_EPOCH:
            return self.replicas.operation_cost(handle)
        if op_id is None:
            return 0.0
        shard = self._shards.get(key)
        if shard is not None and shard.epoch == epoch:
            return shard.system.operation_cost(op_id)
        return self._archived_costs.get((key, epoch), {}).get(op_id, 0.0)

    @property
    def communication_cost(self) -> float:
        """Total normalised communication cost across all shards and epochs
        (replication fan-out and follower-read transfers included)."""
        replica_cost = 0.0 if self.replicas is None else self.replicas.total_cost
        return self._retired_comm_cost + replica_cost + sum(
            shard.system.communication_cost for shard in self._shards.values()
        )

    # -- histories and atomicity -----------------------------------------------------------

    def history(self) -> History:
        """All operations across all shards and epochs, in one merged history.

        Operation and client ids are qualified with the epoch's object id so
        the merged history stays collision-free and well-formed (every shard
        has clients named ``writer-0`` etc.).  The *session* identity is
        deliberately not qualified: it is the cross-shard client identity
        recorded at invocation time, re-attached here so the session
        auditor can follow one logical client across keys, shards and
        migration epochs.  The merged history is meant for latency /
        throughput summaries and session auditing; atomicity is checked per
        epoch by :meth:`check_atomicity` because each migration epoch has
        its own initial value.

        Timestamps are the epochs' recorders' own: every shard simulator
        is born on the global clock, so operations from different shards
        and epochs (and follower-served reads, stamped by the kernel) are
        comparable as they stand.
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
                    session=self._op_sessions.get((op.object_id, op.op_id)),
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
        """Check every epoch of every shard; returns the first violation found."""
        for history in self._all_histories():
            violation = check_atomicity_by_tags(history)
            if violation is not None:
                return violation
        return None

    def incomplete_operations(self) -> int:
        """Number of invoked-but-unfinished operations across the cluster
        (in-flight and failover-deferred replica reads, and writes still
        travelling a forwarding hop, included)."""
        replica_pending = (0 if self.replicas is None
                           else self.replicas.incomplete_reads()
                           + self.replicas.in_flight_forwards())
        return replica_pending + sum(
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
        when the shard's clock already reached it."""
        when = at if at is not None and at > self.shard_now(shard) else None
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

        With replica groups, moves whose key is mid-failover are skipped:
        a migration drains the source with a protocol copy-read, which the
        dead primary pool can never answer (a pool kill freezes its groups
        synchronously, so every such key is frozen by the time a rebalance
        can run).  The failover path owns those keys -- promotion seats a
        live primary, and a later rebalance realigns it with the ring.
        Pools that merely *left* still drain normally.
        """
        plan = self.pending_rebalance(reason=reason, time=time)
        for move in plan.moves:
            if self.replicas is not None and self.replicas.frozen(move.key):
                continue
            self.migrate(move)
        if self.replicas is not None:
            self.replicas.apply_follower_changes(plan.follower_changes,
                                                 plan.time)
        return plan

    def migrate(self, move: ShardMove) -> Shard:
        """Move one shard to a new pool (drain, copy via a read, new epoch)."""
        shard = self._shards[move.key]
        if shard.pool != move.source:
            raise ValueError(
                f"shard {move.key!r} lives on {shard.pool!r}, not {move.source!r}"
            )
        # Drain: finish queued and in-flight operations, then copy the value
        # out with a real protocol read (this is the migration's data copy,
        # and it is charged to the source shard like any other read).
        self._flush_shard(shard)
        shard.system.run_until_idle()
        copy_read = shard.system.read()
        carried = copy_read.value
        # The copy read stays in the shard's own history (it is real protocol
        # traffic and part of the epoch's atomicity check) but is internal:
        # keep it out of the merged workload statistics.
        self._internal_ops.add((shard.system.object_id, copy_read.op_id))
        # Archive the retiring epoch's history, results and per-op costs.
        epoch_key = (move.key, shard.epoch)
        self._archived_results[epoch_key] = dict(shard.system.results)
        self._archived_costs[epoch_key] = dict(
            shard.system.network.costs.by_operation
        )
        self._retired_comm_cost += shard.system.communication_cost
        retired = shard.retired_histories + [shard.system.history()]
        # The new epoch starts at the migration instant or at the retiring
        # epoch's last foreground activity (its birth, if it saw none),
        # whichever is later.  Neither a lagging shard clock (long idle)
        # nor a fast-forwarded one (the inline drain executes any future
        # callbacks, e.g. rate-limited repairs, against the retiring epoch)
        # may drag the epoch boundary off the global timeline.  Internal
        # operations (the migration's own copy read, which runs after the
        # drain and inherits its inflated clock) do not anchor the
        # boundary; they are invisible in merged histories.
        drained_at = max(
            self.kernel.now, shard.born_at,
            *(op.responded_at if op.responded_at is not None
              else op.invoked_at for op in retired[-1]
              if (op.object_id, op.op_id) not in self._internal_ops))
        self.kernel.unregister(f"shard:{shard.object_id}")
        # The new epoch's clock starts at the instant the old epoch drained,
        # preserving real-time order between epochs on the global timeline.
        replacement = self._build_shard(move.key, move.target,
                                        epoch=shard.epoch + 1,
                                        initial_value=carried,
                                        born_at=drained_at)
        replacement.retired_histories = retired
        self._shards[move.key] = replacement
        self._announce_shard(replacement)
        self.stats.migrations += 1
        self.migration_log.append((drained_at, move.key, move.source, move.target))
        if self.replicas is not None:
            self.replicas.on_primary_migrated(move.key, replacement, carried)
        return replacement

    def failover_shard(self, key: str, target_pool: str,
                       carried_value: Optional[bytes]) -> Shard:
        """Promote ``key``'s shard onto ``target_pool`` after primary loss.

        The structural twin of :meth:`migrate` for a *dead* source: the
        retiring epoch cannot be drained (its pool is down, so in-flight
        operations stay incomplete forever -- which is the truth of a
        crash) and the carried value comes from the caught-up follower
        store rather than a protocol copy read.  Frozen pending operations
        transfer onto the new epoch and their handles are re-pointed at
        it; the caller (the replica coordinator) flushes them once it has
        finished its own promotion bookkeeping.
        """
        shard = self._shards[key]
        epoch_key = (key, shard.epoch)
        self._archived_results[epoch_key] = dict(shard.system.results)
        self._archived_costs[epoch_key] = dict(
            shard.system.network.costs.by_operation
        )
        self._retired_comm_cost += shard.system.communication_cost
        retired = shard.retired_histories + [shard.system.history()]
        promoted_at = self.kernel.now
        self.kernel.unregister(f"shard:{shard.object_id}")
        replacement = self._build_shard(key, target_pool,
                                        epoch=shard.epoch + 1,
                                        initial_value=carried_value
                                        if carried_value is not None
                                        else self.config.initial_value,
                                        born_at=promoted_at)
        replacement.retired_histories = retired
        # Operations frozen during the failover window carry over; they
        # execute on the promoted epoch.
        replacement.pending = shard.pending
        shard.pending = []
        for op in replacement.pending:
            self._handles[op.handle][1] = replacement.epoch
        self._shards[key] = replacement
        self._announce_shard(replacement)
        return replacement


__all__ = ["ObjectRouter", "Shard", "RouterStats"]
