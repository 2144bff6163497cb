"""Cross-shard session-consistency auditing.

The per-object checker in :mod:`repro.consistency.linearizability` proves
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
:mod:`repro.consistency.injection`).  Operations without a session,
incomplete operations and operations without a tag are skipped (and
counted in the report).

**The engine.**  One auditor, :class:`StreamingSessionAuditor`, checks
each operation against the maximum-version write and the maximum-version
read among its ``(session, key)`` group's predecessors: a guarantee
holds against all predecessors iff it holds against the maximum one.
Among equal-version witnesses the first to respond (in ``(responded_at,
op_id)`` order) is blamed.  The auditor consumes completed operations
one at a time: the live-audit probe (:mod:`repro.obs.live_audit`) feeds
it during a run, and :func:`check_sessions` replays a recorded history
through it (:func:`replay_history`).

**Watermark contract.**  ``advance({key: W})`` asserts that (a) every
operation on ``key`` that responded strictly before ``W`` has been
consumed, and (b) every operation on ``key`` not yet consumed has
``invoked_at >= W`` *and* ``responded_at >= W``.  So an operation
invoked at or before ``W`` has all its predecessors present and is
checked; and an operation that responded before ``W`` precedes every
check still to come, so it is folded into its group's two settled
maxima and its own state dropped.  Live memory is therefore proportional
to the active groups and in-flight operations, flat in run length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.consistency.history import (  # join_object_id: re-exported
    EPOCH_SUFFIX, READ, WRITE, History, Operation, join_object_id)
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
    rejects user keys that match :data:`EPOCH_SUFFIX`.
    """
    match = EPOCH_SUFFIX.search(object_id)
    if match is None:
        return object_id, 0
    return object_id[:match.start()], int(match.group(1))


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


#: A group entry ``(responded_at, op_id, kind, version, op)`` sorts by
#: response; a checked operation sorts by invocation.
_RESPONSE_ORDER = itemgetter(0, 1)


def _invocation_order(op: Operation) -> Tuple[float, float, str]:
    return (op.invoked_at, op.responded_at, op.op_id)


class _GroupState:
    """Live audit state of one ``(session, key)`` group."""

    __slots__ = ("session", "key", "entries", "unchecked",
                 "settled_write", "settled_read")

    def __init__(self, session: str, key: str) -> None:
        self.session = session
        self.key = key
        #: Arrived, auditable, not-yet-folded operations:
        #: ``(responded_at, op_id, kind, version, op)``.
        self.entries: List[Tuple[float, str, str, Tuple[int, Any], Operation]] = []
        #: Arrived operations whose own check still waits on the watermark.
        self.unchecked: List[Operation] = []
        #: ``(version, op)`` maxima over every folded write / read.
        self.settled_write: Optional[Tuple[Tuple[int, Any], Operation]] = None
        self.settled_read: Optional[Tuple[Tuple[int, Any], Operation]] = None


class StreamingSessionAuditor:
    """The session auditor, fed one completed operation at a time.

    Feed operations through :meth:`consume` (unsessioned, incomplete and
    untagged ones are counted and skipped), move the per-key watermarks
    forward with :meth:`advance`, and read the verdict with
    :meth:`report`.  ``on_violation`` (if set) fires the moment a
    violation is detected -- this is the hook the live-audit probe uses
    to surface violations at sim time.
    """

    def __init__(self) -> None:
        self._groups: Dict[Tuple[str, str], _GroupState] = {}
        #: Groups holding unfolded entries or unchecked operations.
        self._dirty: Set[Tuple[str, str]] = set()
        self.violations: List[SessionViolation] = []
        self.operations_checked = 0
        self.pairs_checked = 0
        self.unsessioned_skipped = 0
        self.unlinearized_skipped = 0
        #: Fired as ``on_violation(violation, op)`` when a check fails.
        self.on_violation: Optional[
            Callable[[SessionViolation, Operation], None]] = None
        # Retention accounting: the benchmark's "tracked state" is the
        # per-operation state still held (unfolded entries + pending
        # checks); the high-water marks show it stays flat in run length.
        self._entry_count = 0
        self._unchecked_count = 0
        self.peak_tracked_entries = 0
        self.peak_groups = 0

    # -- intake ----------------------------------------------------------------

    def consume(self, op: Operation) -> None:
        """Feed one operation; only sessioned, complete, tagged ones are audited."""
        if op.session is None:
            self.unsessioned_skipped += 1
            return
        if not op.is_complete or op.tag is None:
            self.unlinearized_skipped += 1
            return
        key, _ = split_object_id(op.object_id)
        group_key = (op.session, key)
        group = self._groups.get(group_key)
        if group is None:
            group = self._groups[group_key] = _GroupState(op.session, key)
            self.peak_groups = max(self.peak_groups, len(self._groups))
        self.operations_checked += 1
        group.entries.append((op.responded_at, op.op_id, op.kind,
                              operation_version(op), op))
        group.unchecked.append(op)
        self._entry_count += 1
        self._unchecked_count += 1
        self._dirty.add(group_key)
        tracked = self._entry_count + self._unchecked_count
        if tracked > self.peak_tracked_entries:
            self.peak_tracked_entries = tracked

    # -- watermark progress -----------------------------------------------------

    def dirty_keys(self) -> Set[str]:
        """Keys whose groups still hold per-operation state (need watermarks)."""
        return {key for _, key in self._dirty}

    def advance(self, watermarks: Mapping[str, float]) -> None:
        """Check and fold everything the given per-key watermarks allow."""
        for group_key in sorted(self._dirty):
            watermark = watermarks.get(group_key[1])
            if watermark is None:
                continue
            group = self._groups[group_key]
            self._advance_group(group, watermark)
            if not group.entries and not group.unchecked:
                self._dirty.discard(group_key)

    def finalize(self) -> None:
        """Check every still-pending operation as if no more could arrive.

        At quiescence (all in-flight operations resolved) this yields
        the verdict on the complete history.  Called mid-run it reflects
        the completions so far -- operations checked here keep their
        verdicts even if a straggler completes later.  Entries are *not*
        folded, so later arrivals still meet correct witnesses.
        """
        for group_key in sorted(self._dirty):
            group = self._groups[group_key]
            if group.unchecked:
                ready, group.unchecked = group.unchecked, []
                self._unchecked_count -= len(ready)
                self._check_ready(group, ready)
            if not group.entries:
                self._dirty.discard(group_key)

    def _advance_group(self, group: _GroupState, watermark: float) -> None:
        # 1. Check operations whose threshold the watermark has passed:
        #    every witness (responded strictly before invoked_at) has
        #    arrived, because future arrivals respond at >= watermark.
        ready = [op for op in group.unchecked if op.invoked_at <= watermark]
        if ready:
            group.unchecked = [op for op in group.unchecked
                               if op.invoked_at > watermark]
            self._unchecked_count -= len(ready)
            self._check_ready(group, ready)
        # 2. Fold entries no future check can distinguish from the maxima:
        #    every remaining or future threshold is >= watermark.
        folding = [entry for entry in group.entries if entry[0] < watermark]
        if folding:
            group.entries = [entry for entry in group.entries
                             if entry[0] >= watermark]
            self._entry_count -= len(folding)
            folding.sort(key=_RESPONSE_ORDER)
            for _, _, kind, version, op in folding:
                if kind == WRITE:
                    if (group.settled_write is None
                            or version > group.settled_write[0]):
                        group.settled_write = (version, op)
                elif (group.settled_read is None
                        or version > group.settled_read[0]):
                    group.settled_read = (version, op)

    # -- checking ----------------------------------------------------------------

    def _check_ready(self, group: _GroupState, ready: List[Operation]) -> None:
        # Entries in response order: replacing only on a strictly greater
        # version keeps the first to respond among equal versions, and
        # every folded witness responded before every entry.
        group.entries.sort(key=_RESPONSE_ORDER)
        ready.sort(key=_invocation_order)
        for op in ready:
            self._check(group, op)

    def _check(self, group: _GroupState, op: Operation) -> None:
        threshold = op.invoked_at
        best_write = group.settled_write
        best_read = group.settled_read
        for responded_at, _, kind, version, other in group.entries:
            if responded_at >= threshold:
                break
            if kind == WRITE:
                if best_write is None or version > best_write[0]:
                    best_write = (version, other)
            elif best_read is None or version > best_read[0]:
                best_read = (version, other)
        op_version = operation_version(op)
        for witness in (best_write, best_read):
            if witness is None:
                continue
            self.pairs_checked += 1
            violation = _check_pair(group.session, group.key, witness[1], op,
                                    witness[0], op_version)
            if violation is not None:
                self.violations.append(violation)
                if self.on_violation is not None:
                    self.on_violation(violation, op)

    # -- results -----------------------------------------------------------------

    @property
    def tracked_groups(self) -> int:
        return len(self._groups)

    @property
    def tracked_entries(self) -> int:
        """Per-operation state currently held (entries + pending checks)."""
        return self._entry_count + self._unchecked_count

    def report(self, *, extra_unsessioned: int = 0,
               extra_unlinearized: int = 0) -> SessionAuditReport:
        """The audit verdict so far.

        The extras account for operations the *feed* never delivers --
        in a live cluster, operations still incomplete at report time
        (the merged history holds them and counts them as skips; the
        completion feed, by construction, does not).
        """
        return SessionAuditReport(
            violations=list(self.violations),
            sessions_checked=len({session for session, _ in self._groups}),
            operations_checked=self.operations_checked,
            pairs_checked=self.pairs_checked,
            unsessioned_skipped=self.unsessioned_skipped + extra_unsessioned,
            unlinearized_skipped=self.unlinearized_skipped + extra_unlinearized,
        )


def replay_history(history: History, *,
                   advance_every: int = 16) -> StreamingSessionAuditor:
    """Stream a recorded history through a new auditor, watermarks included.

    Completed operations are consumed in ``(responded_at, op_id)`` order
    -- the order a live kernel run delivers completions -- and after
    every ``advance_every`` arrivals the per-key watermarks advance to
    the largest value the contract allows: the minimum of the next
    response time and the smallest invocation time still ahead.  Ends
    with :meth:`StreamingSessionAuditor.finalize`.
    """
    auditor = StreamingSessionAuditor()
    complete: List[Operation] = []
    for op in history:
        if op.is_complete:
            complete.append(op)
        else:
            auditor.consume(op)  # counted as a skip
    complete.sort(key=lambda op: (op.responded_at, op.op_id))
    # suffix_min_invoked[i] = min invocation time of complete[i:].
    suffix_min_invoked = list(accumulate(
        (op.invoked_at for op in reversed(complete)), min))[::-1]
    for index, op in enumerate(complete):
        auditor.consume(op)
        if (index + 1) % advance_every == 0 and index + 1 < len(complete):
            watermark = min(complete[index + 1].responded_at,
                            suffix_min_invoked[index + 1])
            auditor.advance({key: watermark for key in auditor.dirty_keys()})
    auditor.finalize()
    return auditor


def check_sessions(history: History) -> SessionAuditReport:
    """Audit every session of a merged global-clock history.

    Every operation that breaks a guarantee is reported with its
    *strongest witness* -- the maximum-version session operation that
    preceded it -- rather than stopping at the first problem.
    """
    return replay_history(history).report()


def session_groups(
    history: History,
) -> Tuple[Dict[Tuple[str, str], List[Operation]], int, int]:
    """Group a history's auditable operations by ``(session, key)``.

    Eligibility is the auditor's own: every operation is consumed and no
    watermark advances, so each admitted one is still an entry of its
    group.  Each group is sorted by invocation time (deterministic
    tie-breaks).  Returns the groups plus the counts of skipped
    unsessioned and unlinearized (incomplete or untagged) operations.
    """
    auditor = StreamingSessionAuditor()
    for op in history:
        auditor.consume(op)
    groups = {group_key: sorted((entry[-1] for entry in group.entries),
                                key=_invocation_order)
              for group_key, group in auditor._groups.items()}
    return groups, auditor.unsessioned_skipped, auditor.unlinearized_skipped


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
    "StreamingSessionAuditor",
    "check_sessions",
    "join_object_id",
    "operation_version",
    "replay_history",
    "session_groups",
    "split_object_id",
]
