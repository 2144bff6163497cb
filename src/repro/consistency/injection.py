"""Fault injection for the session auditor.

An auditor that has never caught anything is untrustworthy, so this
module *perturbs* a real (or synthetic) history into one that violates a
chosen session guarantee, proving the detector actually fires for every
violation class.  Mutations only ever move *observed versions between
operations of the same key* -- an operation's ``(object_id, value, tag)``
triple is replaced wholesale by another same-key operation's -- so the
injected history is exactly what a buggy implementation would have
recorded (stale read served from a lagging shard, a write acknowledged
with a recycled tag, ...), not an arbitrary corruption.

Sites are searched deterministically (sessions and keys in sorted order,
operations in invocation order), so a given history always yields the
same injection.  A history with no eligible site for the requested class
raises :class:`InjectionError`; dense keyed workloads (hot keys, mixed
reads/writes per session) always have sites.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Tuple

from repro.consistency.history import (  # prefix: re-exported
    READ, REPLICA_CLIENT_PREFIX, WRITE, History, Operation)
from repro.consistency.sessions import (
    MONOTONIC_READS,
    MONOTONIC_WRITES,
    READ_YOUR_WRITES,
    SESSION_GUARANTEES,
    WRITES_FOLLOW_READS,
    operation_version,
    session_groups,
    split_object_id,
)


class InjectionError(LookupError):
    """The history has no eligible site for the requested violation."""


@dataclass(frozen=True)
class Injection:
    """One injected violation: the mutated history plus what was done."""

    guarantee: str
    description: str
    history: History
    #: Ids of the operations whose observed versions were rewritten.
    mutated: Tuple[str, ...]
    session: str
    key: str


def _key_versions(history: History, key: str) -> List[Operation]:
    """Every tagged complete operation on ``key`` (any session), by version."""
    ops = [op for op in history
           if op.is_complete and op.tag is not None
           and split_object_id(op.object_id)[0] == key]
    ops.sort(key=lambda op: (operation_version(op), op.op_id))
    return ops


def _rebuild(history: History, replacements: Dict[str, Operation]) -> History:
    return History(
        [replacements.get(op.op_id, op) for op in history],
        initial_value=history.initial_value,
    )


def _swap_versions(a: Operation, b: Operation) -> Dict[str, Operation]:
    """Swap the observed ``(object_id, value, tag)`` of two operations."""
    return {
        a.op_id: dc_replace(a, object_id=b.object_id, value=b.value, tag=b.tag),
        b.op_id: dc_replace(b, object_id=a.object_id, value=a.value, tag=a.tag),
    }


def _retag(op: Operation, donor: Operation) -> Dict[str, Operation]:
    """Make ``op`` observe the version of ``donor`` (same key)."""
    return {op.op_id: dc_replace(op, object_id=donor.object_id,
                                 value=donor.value, tag=donor.tag)}


def _ordered_pairs(ops: List[Operation], earlier_kind: str,
                   later_kind: str) -> List[Tuple[Operation, Operation]]:
    """Precedence-ordered same-group pairs with the requested kinds."""
    pairs = []
    for later in ops:
        if later.kind != later_kind:
            continue
        for earlier in ops:
            if earlier.kind == earlier_kind and earlier.precedes(later):
                pairs.append((earlier, later))
    return pairs


def inject_session_violation(history: History, guarantee: str) -> Injection:
    """Perturb ``history`` so it violates ``guarantee``.

    The mutation targets the first eligible site in deterministic order;
    the returned :class:`Injection` names the rewritten operations so a
    test can assert the auditor blames exactly them.
    """
    if guarantee not in SESSION_GUARANTEES:
        raise ValueError(f"unknown session guarantee {guarantee!r}")
    # The auditor's own grouping: injection sites are, by construction,
    # sites the auditor audits.
    groups, _, _ = session_groups(history)
    for (session, key), ops in sorted(groups.items()):
        if guarantee == MONOTONIC_READS:
            # Two ordered reads with distinct versions: swap what they saw,
            # so the later read observes the older version.
            for earlier, later in _ordered_pairs(ops, READ, READ):
                if operation_version(earlier) < operation_version(later):
                    return Injection(
                        guarantee=guarantee,
                        description=(f"swapped the versions read by "
                                     f"{earlier.op_id} and {later.op_id}"),
                        history=_rebuild(history, _swap_versions(earlier, later)),
                        mutated=(earlier.op_id, later.op_id),
                        session=session, key=key,
                    )
        elif guarantee == MONOTONIC_WRITES:
            # Two ordered writes: swap their effect versions, so the later
            # write lands below the earlier one.
            for earlier, later in _ordered_pairs(ops, WRITE, WRITE):
                if operation_version(earlier) < operation_version(later):
                    return Injection(
                        guarantee=guarantee,
                        description=(f"swapped the versions written by "
                                     f"{earlier.op_id} and {later.op_id}"),
                        history=_rebuild(history, _swap_versions(earlier, later)),
                        mutated=(earlier.op_id, later.op_id),
                        session=session, key=key,
                    )
        elif guarantee == READ_YOUR_WRITES:
            # A session write followed by a session read: demote the read
            # to a version older than the write (a stale replica answer).
            for earlier, later in _ordered_pairs(ops, WRITE, READ):
                donor = _version_below(history, key, operation_version(earlier))
                if donor is not None:
                    return Injection(
                        guarantee=guarantee,
                        description=(f"demoted read {later.op_id} to the "
                                     f"stale version of {donor.op_id}"),
                        history=_rebuild(history, _retag(later, donor)),
                        mutated=(later.op_id,),
                        session=session, key=key,
                    )
        else:  # WRITES_FOLLOW_READS
            # A session read followed by a session write: promote the read
            # to a version newer than the write, so the write no longer
            # follows what the session had read.
            for earlier, later in _ordered_pairs(ops, READ, WRITE):
                donor = _version_above(history, key, operation_version(later))
                if donor is not None:
                    return Injection(
                        guarantee=guarantee,
                        description=(f"promoted read {earlier.op_id} to the "
                                     f"future version of {donor.op_id}"),
                        history=_rebuild(history, _retag(earlier, donor)),
                        mutated=(earlier.op_id,),
                        session=session, key=key,
                    )
    raise InjectionError(
        f"no eligible site for a {guarantee} violation: the history needs a "
        "session with precedence-ordered operations (and a same-key donor "
        "version) of the required kinds"
    )


def _version_below(history: History, key: str,
                   bound: Tuple) -> Optional[Operation]:
    for op in _key_versions(history, key):
        if operation_version(op) < bound:
            return op
    return None


def _version_above(history: History, key: str,
                   bound: Tuple) -> Optional[Operation]:
    for op in reversed(_key_versions(history, key)):
        if operation_version(op) > bound:
            return op
    return None


def inject_all(history: History) -> Dict[str, Injection]:
    """One injection per guarantee class (raises if any class has no site)."""
    return {guarantee: inject_session_violation(history, guarantee)
            for guarantee in SESSION_GUARANTEES}


#: Client-id marker of quorum-merged reads (a narrower class than the
#: general replica prefix: the coordinator stamps them ``replica:quorum/``).
QUORUM_CLIENT_MARKER = REPLICA_CLIENT_PREFIX + "quorum/"


def is_follower_read(op: Operation) -> bool:
    """True for reads served by a replica follower store.

    The replica coordinator stamps follower-served operations with a
    ``replica:<pool>/...`` client id (see
    :meth:`repro.cluster.replicas.ReplicaCoordinator`), which is what makes
    the replicated read path auditable as such.
    """
    return op.kind == READ and op.client_id.startswith(REPLICA_CLIENT_PREFIX)


def is_quorum_read(op: Operation) -> bool:
    """True for reads resolved by the replica layer's quorum merge."""
    return op.kind == READ and op.client_id.startswith(QUORUM_CLIENT_MARKER)


def _inject_stale_replica_read(history: History, eligible, what: str,
                               description: str) -> Injection:
    """Shared search: demote a replica-served read below its session floor.

    Finds the first (deterministic order) read matching ``eligible`` that
    has a preceding same-session operation and an older same-key donor
    version, and rewrites it to observe the donor -- the history a buggy
    replica read path would have recorded.
    """
    groups, _, _ = session_groups(history)
    for (session, key), ops in sorted(groups.items()):
        for later in ops:
            if not eligible(later):
                continue
            predecessors = [earlier for earlier in ops
                            if earlier.precedes(later)]
            if not predecessors:
                continue
            strongest = max(predecessors,
                            key=lambda op: (operation_version(op), op.op_id))
            donor = _version_below(history, key, operation_version(strongest))
            if donor is None:
                continue
            guarantee = (READ_YOUR_WRITES if strongest.kind == WRITE
                         else MONOTONIC_READS)
            return Injection(
                guarantee=guarantee,
                description=(f"{description} {later.op_id} to the stale "
                             f"version of {donor.op_id} (session had "
                             f"already observed {strongest.op_id})"),
                history=_rebuild(history, _retag(later, donor)),
                mutated=(later.op_id,),
                session=session, key=key,
            )
    raise InjectionError(
        f"no eligible {what} site: the history needs a matching replica-"
        "served read preceded by a session operation with an older same-key "
        "donor version (run a replicated workload with such reads first)"
    )


def inject_stale_follower_read(history: History) -> Injection:
    """Demote a follower-served read below what its session already saw.

    This is the replica layer's characteristic failure mode: a lagging
    follower answers a read with a version the session has already moved
    past -- exactly what the coordinator's session guard exists to
    prevent.  The mutation rewrites one follower read to observe an older
    same-key version, producing the history a guard-less (or buggy)
    router would record; the session auditor must then report a
    read-your-writes violation (when the session's strongest predecessor
    was its own write) or a monotonic-reads violation (when it was a
    read).  Raises :class:`InjectionError` when the history contains no
    follower read with a preceding session operation and an older donor
    version -- i.e. when replication was off or followers never served.
    """
    return _inject_stale_replica_read(
        history, is_follower_read, "stale-follower",
        "demoted follower read",
    )


def inject_quorum_version_drop(history: History) -> Injection:
    """Drop the max-version response from a quorum merge.

    The quorum read path's characteristic failure mode: the merge loses
    (or never receives) the member holding the maximum version and a
    stale member's answer wins instead.  The mutation rewrites one
    quorum-merged read to observe an older same-key version -- exactly
    the history a merge that dropped its freshest response would have
    recorded -- and the session auditor must report the resulting
    read-your-writes or monotonic-reads violation.  Raises
    :class:`InjectionError` when the history has no quorum read with a
    preceding session operation and an older donor version.
    """
    return _inject_stale_replica_read(
        history, is_quorum_read, "quorum-drop",
        "dropped the max-version response: demoted quorum read",
    )


# -- cluster-level availability drills -------------------------------------------
#
# The history injections above prove the *session* auditor fires; the two
# drills below prove the *availability* monitor fires.  They perturb a
# live ClusterSimulation (duck-typed: needs ``cluster``, ``repair``,
# ``membership``, ``kernel``) into the monitor's alarm condition -- an L2
# fragment that is gone with nobody scheduled to regenerate it.


@dataclass(frozen=True)
class AvailabilityDrill:
    """One availability fault drill: the fragment holes it opened."""

    kind: str
    #: The ``(key, l2_index, pool)`` slots now missing without a pending
    #: repair -- exactly what the sampling monitor must classify SILENT.
    holes: Tuple[Tuple[str, int, str], ...]
    #: The failed node, for the withheld-repair drill.
    node_id: Optional[str] = None


def inject_under_replication(simulation, count: int = 1,
                             l2_index: Optional[int] = None) -> AvailabilityDrill:
    """Silently crash one L2 slot on ``count`` shards (no membership event).

    This models decay the control plane never saw: the fragment is gone
    but no failure event fired, so the repair scheduler has no task for
    it and the membership still believes the node is fine.  Only a probe
    that actually samples fragment presence --
    :class:`repro.obs.availability.AvailabilityMonitor` -- can notice.
    Deterministic: the first ``count`` shard keys in sorted order whose
    chosen slot is still up.  Raises :class:`InjectionError` when the
    simulation has fewer than ``count`` eligible shards (run a workload
    first; shards are created lazily).
    """
    if count < 1:
        raise ValueError("at least one hole is required")
    shards = simulation.shards
    index = simulation.config.n2 - 1 if l2_index is None else l2_index
    holes = []
    for key in sorted(shards):
        if len(holes) >= count:
            break
        shard = shards[key]
        if shard.system.l2_servers[index].crashed:
            continue
        # Immediate, not scheduled: the decay happened "in the past"
        # and nothing in the simulation may observe the act itself.
        shard.system.crash_l2(index)
        holes.append((key, index, shard.pool))
    if len(holes) < count:
        raise InjectionError(
            f"only {len(holes)} of {count} under-replication site(s) "
            f"available: the simulation needs that many shards with L2 "
            f"slot {index} still up (run a workload to create shards first)"
        )
    return AvailabilityDrill(kind="under-replication", holes=tuple(holes))


def inject_withheld_repair(simulation,
                           node_id: Optional[str] = None) -> AvailabilityDrill:
    """Fail a node, then abandon every repair its failure scheduled.

    The repair pipeline's characteristic silent failure: the loss *was*
    detected and tasks were queued, but the operator (or a bug) withheld
    them -- ``RepairScheduler.withhold_node`` marks them gave-up -- so
    the backlog no longer covers the holes and the pool, still alive,
    explains nothing.  Every affected fragment is therefore SILENT to
    the availability monitor, which must alarm.  Picks the first (sorted
    pool, then L2 index) alive node whose pool hosts at least one shard
    when ``node_id`` is not given; raises :class:`InjectionError` when
    no failure would schedule any repair (no shards exist yet).
    """
    membership = simulation.membership
    when = simulation.kernel.now
    if node_id is None:
        pools_with_shards = {shard.pool for shard in simulation.shards.values()}
        for pool in sorted(membership.pools):
            if pool not in pools_with_shards:
                continue
            l2_alive = [n for n in membership.pool_nodes(pool, status="alive")
                        if n.role == "l2"]
            if l2_alive:
                node_id = l2_alive[0].node_id
                break
        if node_id is None:
            raise InjectionError(
                "no eligible withheld-repair site: no pool with live shards "
                "has an alive L2 node (run a workload to create shards first)"
            )
    simulation.fail_node(node_id, time=when)
    withheld = simulation.repair.withhold_node(node_id)
    if not withheld:
        raise InjectionError(
            f"failing {node_id!r} scheduled no repairs to withhold: the "
            "node's pool hosts no shards (run a workload first)"
        )
    holes = tuple((task.key, task.l2_index, task.pool)
                  for task in withheld)
    return AvailabilityDrill(kind="withheld-repair", holes=holes,
                             node_id=node_id)


__all__ = [
    "AvailabilityDrill",
    "Injection",
    "InjectionError",
    "QUORUM_CLIENT_MARKER",
    "REPLICA_CLIENT_PREFIX",
    "inject_all",
    "inject_quorum_version_drop",
    "inject_session_violation",
    "inject_stale_follower_read",
    "inject_under_replication",
    "inject_withheld_repair",
    "is_follower_read",
    "is_quorum_read",
]
