"""Operation histories.

A :class:`History` is the record of an execution from the clients' point
of view: for every read or write operation it stores the invocation time,
the response time (absent for incomplete operations), the value written or
returned, and -- when the implementation exposes it -- the version tag the
operation was associated with.  Histories are what the atomicity checkers
and the cost/latency analyses consume.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional

WRITE = "write"
READ = "read"

#: Client-id prefix stamped on follower-served operations by the replica
#: coordinator (the single definition; the coordinator and the drills in
#: repro.consistency.injection both import it from here).
REPLICA_CLIENT_PREFIX = "replica:"


def join_object_id(key: str, epoch: int) -> str:
    """``(key, n)`` -> ``key@e<n>``; the inverse of
    :func:`repro.consistency.sessions.split_object_id`.

    The single definition of the epoch-qualified object-id format; the
    router and the replica layer both build ids through it so the
    auditor's parse can never drift from the writers' format.
    """
    return key if epoch == 0 else f"{key}@e{epoch}"


#: The epoch suffix ``@e<n>``, ``n`` in ASCII digits: the one grammar the
#: router's key check and the auditor's parse share.  The router rejects
#: user keys it matches, so ``key`` and ``key@e2`` can never collide.
EPOCH_SUFFIX = re.compile(r"@e([0-9]+)$")


@dataclass(frozen=True)
class Operation:
    """One client operation in a history.

    ``client_id`` names the physical client process that executed the
    operation (unique per shard deployment); ``session`` is the logical
    cross-object client identity threaded through the cluster layer, the
    unit over which the session-consistency guarantees of
    :mod:`repro.consistency.sessions` are checked.  Single-system
    histories leave it ``None``.
    """

    op_id: str
    client_id: str
    kind: str
    object_id: str = "object-0"
    value: Any = None
    invoked_at: float = 0.0
    responded_at: Optional[float] = None
    tag: Any = None
    session: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in (READ, WRITE):
            raise ValueError(f"operation kind must be 'read' or 'write', got {self.kind!r}")
        for time in (self.invoked_at, self.responded_at):
            if time is not None and not -math.inf < time < math.inf:
                raise ValueError(f"operation times must be finite, got {time!r}")
        if self.responded_at is not None and self.responded_at < self.invoked_at:
            raise ValueError("response cannot precede invocation")

    @property
    def is_complete(self) -> bool:
        return self.responded_at is not None

    @property
    def duration(self) -> Optional[float]:
        """Operation latency; None for incomplete operations."""
        if self.responded_at is None:
            return None
        return self.responded_at - self.invoked_at

    def precedes(self, other: "Operation") -> bool:
        """Real-time precedence: this op responded before the other was invoked."""
        return self.responded_at is not None and self.responded_at < other.invoked_at


class History:
    """An immutable-ish collection of operations with query helpers."""

    def __init__(self, operations: Iterable[Operation] = (), initial_value: Any = None) -> None:
        self._operations: List[Operation] = list(operations)
        self.initial_value = initial_value

    # -- basic access ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self):
        return iter(self._operations)

    @property
    def operations(self) -> List[Operation]:
        return list(self._operations)

    def add(self, operation: Operation) -> None:
        self._operations.append(operation)

    # -- filtering ---------------------------------------------------------------

    def complete(self) -> "History":
        """Sub-history of completed operations only."""
        return History(
            [op for op in self._operations if op.is_complete],
            initial_value=self.initial_value,
        )

    def for_object(self, object_id: str) -> "History":
        """Sub-history restricted to one object."""
        return History(
            [op for op in self._operations if op.object_id == object_id],
            initial_value=self.initial_value,
        )

    def writes(self) -> List[Operation]:
        return [op for op in self._operations if op.kind == WRITE]

    def reads(self) -> List[Operation]:
        return [op for op in self._operations if op.kind == READ]

    def object_ids(self) -> List[str]:
        """Distinct object ids appearing in the history (insertion order)."""
        seen: Dict[str, None] = {}
        for op in self._operations:
            seen.setdefault(op.object_id, None)
        return list(seen)

    def sessions(self) -> List[str]:
        """Distinct (non-None) session ids in the history (insertion order)."""
        seen: Dict[str, None] = {}
        for op in self._operations:
            if op.session is not None:
                seen.setdefault(op.session, None)
        return list(seen)

    # -- well-formedness -------------------------------------------------------------

    def is_well_formed(self) -> bool:
        """Each client has at most one outstanding operation at any time."""
        by_client: Dict[str, List[Operation]] = {}
        for op in self._operations:
            by_client.setdefault(op.client_id, []).append(op)
        for ops in by_client.values():
            ordered = sorted(ops, key=lambda op: op.invoked_at)
            for previous, current in zip(ordered, ordered[1:]):
                if previous.responded_at is None:
                    return False
                if previous.responded_at > current.invoked_at:
                    return False
        return True

    # -- statistics ------------------------------------------------------------------

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        """Durations of completed operations, optionally restricted to a kind."""
        return [
            op.duration
            for op in self._operations
            if op.is_complete and (kind is None or op.kind == kind)
        ]


class OperationRecorder:
    """Collects invocation/response events as a simulation runs."""

    def __init__(self, initial_value: Any = None) -> None:
        self._pending: Dict[str, Operation] = {}
        self._completed: List[Operation] = []
        self.initial_value = initial_value

    def invoke(self, op_id: str, client_id: str, kind: str, object_id: str,
               value: Any, time: float) -> None:
        """Record the invocation step of an operation."""
        if op_id in self._pending:
            raise ValueError(f"operation {op_id!r} already invoked")
        self._pending[op_id] = Operation(
            op_id=op_id, client_id=client_id, kind=kind, object_id=object_id,
            value=value, invoked_at=time,
        )

    def respond(self, op_id: str, time: float, value: Any = None, tag: Any = None) -> None:
        """Record the response step of an operation.

        For reads, ``value`` is the returned value; for writes it is ignored.
        """
        pending = self._pending.pop(op_id, None)
        if pending is None:
            raise ValueError(f"operation {op_id!r} was never invoked (or responded twice)")
        updates = {"responded_at": time, "tag": tag}
        if pending.kind == READ and value is not None:
            updates["value"] = value
        self._completed.append(replace(pending, **updates))

    @property
    def incomplete_count(self) -> int:
        return len(self._pending)

    def pending_operations(self) -> List[Operation]:
        """The invoked-but-unresponded operations (invocation-time data only)."""
        return list(self._pending.values())

    def history(self) -> History:
        """Build the history of all operations recorded so far."""
        operations = self._completed + list(self._pending.values())
        operations.sort(key=lambda op: op.invoked_at)
        return History(operations, initial_value=self.initial_value)


__all__ = ["History", "Operation", "OperationRecorder", "READ", "WRITE"]
