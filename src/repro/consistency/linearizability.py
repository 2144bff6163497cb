"""Atomicity (linearizability) checking for read/write registers.

The paper proves Theorem IV.9 (every execution of LDS is atomic) through
the sufficient condition of Lemma 13.16 of Lynch.  :func:`check_atomicity`
checks the definition itself.  Each read is mapped to the write it
returns by its version tag; the tag names that write and never orders
anything.  A write and the reads that return it form a *cluster*, and a
history whose reads are so mapped is linearizable exactly when the
clusters' *zones* do not conflict (Gibbons and Korach, "Testing Shared
Memories", SIAM J. Comput. 1997; the zone form is from Golab, Li and
Shah, "Analyzing Consistency Properties for Fun and Profit", PODC 2011).
The check takes O(n log n) time per object.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.consistency.history import History, Operation, WRITE


@dataclass
class AtomicityViolation:
    """Description of a detected atomicity violation."""

    description: str
    operations: Tuple[str, ...] = ()

    def __str__(self) -> str:
        ops = ", ".join(self.operations)
        return f"{self.description} (operations: {ops})" if ops else self.description


def check_atomicity(history: History) -> Optional[AtomicityViolation]:
    """Return ``None`` when every object of ``history`` is atomic, else the
    first violation found.

    Incomplete operations are dropped: they are not yet linearized, and a
    recorder gives a pending write no tag, so no read can name it.  Callers
    may therefore pass recorder histories as they stand.  A *completed*
    operation without a tag is a violation: the implementation responded
    without linearizing it.
    """
    for object_id in history.object_ids():
        register = history.for_object(object_id).complete()
        violation = check_register(register.operations, history.initial_value)
        if violation is not None:
            return violation
    return None


def check_register(operations: List[Operation],
                   initial_value: Any) -> Optional[AtomicityViolation]:
    """:func:`check_atomicity` of one register: ``operations`` are its
    completed operations, in any order."""
    writes: Dict[Any, Operation] = {}
    for op in operations:
        if op.tag is None:
            return AtomicityViolation("operation is missing a tag", (op.op_id,))
        if op.kind == WRITE:
            if op.tag in writes:
                return AtomicityViolation(
                    "two writes share the same tag", (writes[op.tag].op_id, op.op_id))
            writes[op.tag] = op

    # Each cluster as [f, s, name]: its first response, its last
    # invocation, and the operation that names it.  The initial value is
    # a write at (-inf, -inf) that the reads naming no write join; with
    # no such read its zone conflicts with nothing.
    clusters = {tag: [write.responded_at, write.invoked_at, write.op_id]
                for tag, write in writes.items()}
    initial = [-math.inf, -math.inf, ""]
    for op in operations:
        if op.kind == WRITE:
            continue
        write = writes.get(op.tag)
        if write is None:
            if op.value != initial_value:
                return AtomicityViolation(
                    "read returned a value never written (and not the initial value)",
                    (op.op_id,))
            cluster = initial
            cluster[2] = cluster[2] or op.op_id
        elif op.value != write.value:
            return AtomicityViolation(
                "read returned a value inconsistent with its tag's write",
                (op.op_id, write.op_id))
        elif op.responded_at < write.invoked_at:
            return AtomicityViolation(
                "read responded before its write was invoked (real-time order)",
                (op.op_id, write.op_id))
        else:
            cluster = clusters[op.tag]
        cluster[0] = min(cluster[0], op.responded_at)
        cluster[1] = max(cluster[1], op.invoked_at)

    # A cluster's zone is forward (f, s) when some operation of it
    # responded before another was invoked, else backward (s, f).  Times
    # compare strictly, as in Operation.precedes.
    zones = [*clusters.values(), initial]
    forward = sorted((zone for zone in zones if zone[0] < zone[1]),
                     key=lambda zone: zone[0])
    # Two forward zones conflict when they overlap; sorted by f, the first
    # overlap is between neighbours.
    for before, after in zip(forward, forward[1:]):
        if after[0] < before[1]:
            return AtomicityViolation(
                "two writes' zones overlap in real-time order", (before[2], after[2]))
    # A backward zone conflicts with a forward zone that contains it; the
    # forward zones are disjoint now, so only the last one starting before
    # the backward zone can.
    starts = [zone[0] for zone in forward]
    for f, s, name in zones:
        if f < s:
            continue
        index = bisect_left(starts, s) - 1
        if index >= 0 and f < forward[index][1]:
            return AtomicityViolation(
                "a write falls inside another write's zone in real-time order",
                (forward[index][2], name))
    return None


__all__ = ["AtomicityViolation", "check_atomicity", "check_register"]
