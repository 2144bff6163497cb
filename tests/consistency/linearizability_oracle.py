"""An exhaustive linearizability reference for the differential tests.

Everything here is plain Python over the operations' attributes and
shares no code with :mod:`repro.consistency`: it never reads a tag, and it
searches every order of the operations of one register that respects
real time, memoised on (set already placed, register value).  It is
exponential in the concurrency, so it is meant for small histories.

Pending operations (``responded_at is None``) are optional: each may take
effect at any point after its invocation, or never.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Set, Tuple


def is_linearizable(history) -> bool:
    """True when every object of ``history`` has a legal linearization."""
    by_object: Dict[str, List[Any]] = {}
    for op in history:
        by_object.setdefault(op.object_id, []).append(op)
    return all(_register_is_linearizable(ops, history.initial_value)
               for ops in by_object.values())


def _precedes(earlier, later) -> bool:
    return earlier.responded_at is not None and earlier.responded_at < later.invoked_at


def _register_is_linearizable(ops: List[Any], initial_value: Any) -> bool:
    count = len(ops)
    before = [frozenset(j for j in range(count) if _precedes(ops[j], ops[i]))
              for i in range(count)]
    required = frozenset(i for i in range(count) if ops[i].responded_at is not None)
    seen: Set[Tuple[FrozenSet[int], Any]] = set()

    def search(placed: FrozenSet[int], value: Any) -> bool:
        if required <= placed:
            return True
        if (placed, value) in seen:
            return False
        seen.add((placed, value))
        for i, op in enumerate(ops):
            if i in placed or not before[i] <= placed:
                continue
            if op.kind == "write":
                if search(placed | {i}, op.value):
                    return True
            elif op.responded_at is None or op.value == value:
                if search(placed | {i}, value):
                    return True
        return False

    return search(frozenset(), initial_value)
