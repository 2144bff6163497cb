"""Cross-shard session-consistency auditing.

The per-object checkers in :mod:`repro.consistency.linearizability` prove
what the paper proves: each LDS object (each shard epoch) is atomic.  A
sharded deployment, however, serves many keys per client, and nothing in a
per-object check notices a client observing key ``a`` going backwards
while it hops between shards -- or a migration epoch whose carried value
regresses.  This module audits the four classic *session guarantees*
(Terry et al., "Session Guarantees for Weakly Consistent Replicated
Data") over the merged, global-clock history of a whole cluster:

* **monotonic reads** -- once a session has read a version of a key, no
  later read of that key in the session returns an older version;
* **monotonic writes** -- a session's writes to a key take effect in
  session order (strictly increasing versions);
* **read your writes** -- a session's read of a key returns the session's
  own latest preceding write to that key, or something newer;
* **writes follow reads** -- a session's write to a key is ordered after
  every version the session previously read of that key.

**Versions.**  An operation's version is the pair ``(epoch, tag)``: the
shard migration epoch parsed from its ``object_id`` (``key`` is epoch 0,
``key@e2`` is epoch 2) and the implementation's version tag.  Within an
epoch the tags are the paper's totally ordered version tags; across
epochs the router's drain barrier guarantees every epoch-``e`` operation
completes before any epoch-``e+1`` operation is invoked, so the
lexicographic order on ``(epoch, tag)`` is a total order per key that is
consistent with real time.

**Session order.**  Operations of a session are related only by real-time
precedence on the global clock (``a`` responded strictly before ``b`` was
invoked).  Concurrent operations of a session -- possible because a
logical session spans per-shard writer and reader processes -- are
unconstrained, which is exactly the guarantee the cluster actually
provides: per-key atomicity plus the migration drain barrier imply all
four guarantees for precedence-ordered pairs, so a correct run audits
clean and any reported violation is a real bug (or an injected one; see
:mod:`repro.consistency.injection`).

The auditor therefore requires a history whose timestamps are mutually
comparable, which every cluster history is (every shard runs on the
kernel's one clock).  Operations without a session, incomplete
operations, and operations without a tag are skipped (and counted in the
report).

In the style of Wing & Gong's checker the audit covers every
precedence-ordered pair, but via running maxima (a guarantee holds
against all predecessors iff it holds against the maximum-version one),
so it costs O(n log n) per (session, key) group and stays cheap even
when a hot key concentrates a production-scale workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.consistency.history import (  # join_object_id: re-exported
    READ, WRITE, History, Operation, join_object_id)
from repro.consistency.linearizability import AtomicityViolation

#: Session-guarantee identifiers, as reported in violations.
MONOTONIC_READS = "monotonic-reads"
MONOTONIC_WRITES = "monotonic-writes"
READ_YOUR_WRITES = "read-your-writes"
WRITES_FOLLOW_READS = "writes-follow-reads"

SESSION_GUARANTEES = (
    MONOTONIC_READS,
    MONOTONIC_WRITES,
    READ_YOUR_WRITES,
    WRITES_FOLLOW_READS,
)


def split_object_id(object_id: str) -> Tuple[str, int]:
    """``key@e<n>`` -> ``(key, n)``; plain object ids are epoch 0.

    The parse is unambiguous for cluster histories because the router
    rejects user keys ending in its reserved ``@e<n>`` epoch suffix.
    """
    base, sep, suffix = object_id.rpartition("@e")
    if sep and suffix.isdigit():
        return base, int(suffix)
    return object_id, 0


def operation_version(op: Operation) -> Tuple[int, Any]:
    """The ``(epoch, tag)`` version an operation wrote or observed."""
    _, epoch = split_object_id(op.object_id)
    return (epoch, op.tag)


@dataclass(frozen=True)
class SessionViolation:
    """One detected violation of a session guarantee."""

    guarantee: str
    session: str
    key: str
    description: str
    #: The (earlier, later) operation ids of the offending pair.
    operations: Tuple[str, ...] = ()

    def __str__(self) -> str:
        ops = ", ".join(self.operations)
        suffix = f" (operations: {ops})" if ops else ""
        return (f"[{self.guarantee}] session {self.session!r}, "
                f"key {self.key!r}: {self.description}{suffix}")


@dataclass
class SessionAuditReport:
    """Everything the session auditor measured over one history."""

    violations: List[SessionViolation] = field(default_factory=list)
    sessions_checked: int = 0
    operations_checked: int = 0
    pairs_checked: int = 0
    #: Operations ignored because they carry no session identity.
    unsessioned_skipped: int = 0
    #: Sessioned but incomplete or untagged operations (not linearized yet).
    unlinearized_skipped: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def for_guarantee(self, guarantee: str) -> List[SessionViolation]:
        """The violations of one guarantee class."""
        return [v for v in self.violations if v.guarantee == guarantee]

    def describe(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"SessionAuditReport({status}, sessions={self.sessions_checked}, "
            f"operations={self.operations_checked}, pairs={self.pairs_checked})"
        )


def session_groups(
    history: History,
) -> Tuple[Dict[Tuple[str, str], List[Operation]], int, int]:
    """Group a history's auditable operations by ``(session, key)``.

    Auditable means sessioned, complete and tagged; each group is sorted
    by invocation time (deterministic tie-breaks).  Returns the groups
    plus the counts of skipped unsessioned and unlinearized (incomplete
    or untagged) operations.  Shared by the auditor and the injection
    harness so eligibility and ordering can never drift between the
    detector and the drill that proves it fires.
    """
    groups: Dict[Tuple[str, str], List[Operation]] = {}
    unsessioned = 0
    unlinearized = 0
    for op in history:
        if op.session is None:
            unsessioned += 1
            continue
        if not op.is_complete or op.tag is None:
            unlinearized += 1
            continue
        key, _ = split_object_id(op.object_id)
        groups.setdefault((op.session, key), []).append(op)
    for ops in groups.values():
        ops.sort(key=lambda op: (op.invoked_at, op.responded_at, op.op_id))
    return groups, unsessioned, unlinearized


def check_sessions(history: History) -> SessionAuditReport:
    """Audit every session of a merged global-clock history.

    Every operation that breaks a guarantee is reported with its
    *strongest witness* -- the maximum-version session operation that
    preceded it -- rather than stopping at the first problem.  Because a
    guarantee holds against all predecessors iff it holds against the
    maximum one, checking each operation against the running maxima gives
    the same verdicts as exhaustive pairing at O(n log n) per
    (session, key) group instead of O(n^2), which matters once a hot key
    concentrates a large share of a production-scale workload.
    """
    report = SessionAuditReport()
    groups, report.unsessioned_skipped, report.unlinearized_skipped = \
        session_groups(history)
    report.sessions_checked = len({session for session, _ in groups})
    report.operations_checked = sum(len(ops) for ops in groups.values())

    for (session, key), ops in sorted(groups.items()):
        # Sweep in invocation order, replaying responses as they become
        # visible: an operation precedes the current one iff it responded
        # strictly before the current invocation, so the running maxima
        # cover exactly the precedence-ordered predecessors.
        responded = sorted(ops, key=lambda op: (op.responded_at, op.op_id))
        cursor = 0
        max_write: Optional[Tuple[Tuple[int, Any], Operation]] = None
        max_read: Optional[Tuple[Tuple[int, Any], Operation]] = None
        for op in ops:
            while (cursor < len(responded)
                   and responded[cursor].responded_at < op.invoked_at):
                prior = responded[cursor]
                version = operation_version(prior)
                if prior.kind == WRITE:
                    if max_write is None or version > max_write[0]:
                        max_write = (version, prior)
                elif max_read is None or version > max_read[0]:
                    max_read = (version, prior)
                cursor += 1
            op_version = operation_version(op)
            for witness in (max_write, max_read):
                if witness is None:
                    continue
                report.pairs_checked += 1
                violation = _check_pair(session, key, witness[1], op,
                                        witness[0], op_version)
                if violation is not None:
                    report.violations.append(violation)
    return report


def _check_pair(session: str, key: str, earlier: Operation, later: Operation,
                earlier_version: Tuple[int, Any],
                later_version: Tuple[int, Any]) -> Optional[SessionViolation]:
    """The guarantee (if any) violated by one precedence-ordered pair."""
    pair = (earlier.op_id, later.op_id)
    if later.kind == READ:
        if later_version >= earlier_version:
            return None
        if earlier.kind == READ:
            return SessionViolation(
                MONOTONIC_READS, session, key,
                f"read observed version {later_version} after the session "
                f"already read version {earlier_version}", pair,
            )
        return SessionViolation(
            READ_YOUR_WRITES, session, key,
            f"read observed version {later_version} although the session "
            f"had already written version {earlier_version}", pair,
        )
    # later is a WRITE: its version must be strictly newer than anything
    # the session previously wrote (monotonic writes) or read (writes
    # follow reads) for this key.
    if later_version > earlier_version:
        return None
    if earlier.kind == WRITE:
        return SessionViolation(
            MONOTONIC_WRITES, session, key,
            f"write took effect at version {later_version}, not after the "
            f"session's earlier write at version {earlier_version}", pair,
        )
    return SessionViolation(
        WRITES_FOLLOW_READS, session, key,
        f"write took effect at version {later_version}, not after version "
        f"{earlier_version} which the session had already read", pair,
    )


@dataclass
class ClusterAuditReport:
    """The combined post-run correctness verdict of a cluster simulation.

    Bundles the per-epoch atomicity check (the paper's guarantee) with the
    cross-shard session audit (the deployment's guarantee) and -- when the
    sampling availability monitor ran -- its durability confidence verdict
    (duck-typed: anything with ``ok`` and ``describe()``); ``ok`` only
    when everything holds.
    """

    atomicity: Optional[AtomicityViolation]
    sessions: SessionAuditReport
    #: :class:`~repro.obs.availability.AvailabilityAssessment` when the
    #: sampling monitor ran, else None.
    availability: Optional[Any] = None

    @property
    def ok(self) -> bool:
        if self.atomicity is not None or not self.sessions.ok:
            return False
        return self.availability is None or self.availability.ok

    def describe(self) -> str:
        atomic = "atomic" if self.atomicity is None else f"VIOLATION: {self.atomicity}"
        parts = f"ClusterAuditReport({atomic}; {self.sessions.describe()}"
        if self.availability is not None:
            parts += f"; {self.availability.describe()}"
        return parts + ")"


__all__ = [
    "MONOTONIC_READS",
    "MONOTONIC_WRITES",
    "READ_YOUR_WRITES",
    "WRITES_FOLLOW_READS",
    "SESSION_GUARANTEES",
    "ClusterAuditReport",
    "SessionAuditReport",
    "SessionViolation",
    "check_sessions",
    "join_object_id",
    "operation_version",
    "session_groups",
    "split_object_id",
]
