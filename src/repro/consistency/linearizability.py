"""Atomicity (linearizability) checking for read/write registers.

Two complementary checkers are provided:

* :func:`check_atomicity_by_tags` implements the sufficient condition of
  Lemma 13.16 of Lynch (the one the paper uses to prove Theorem IV.9): the
  partial order induced by the implementation's version tags must be
  consistent with real-time order, writes must be totally ordered, and
  every read must return the value of the write whose tag it carries.

* :class:`LinearizabilityChecker` is a general search-based checker (in
  the style of Wing & Gong) specialised to single-register read/write
  histories.  It does not trust the implementation's tags at all; it is
  exponential in the amount of concurrency, so it is intended for the
  randomized small/medium histories produced by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.consistency.history import History, Operation, READ, WRITE


@dataclass
class AtomicityViolation:
    """Description of a detected atomicity violation."""

    description: str
    operations: Tuple[str, ...] = ()

    def __str__(self) -> str:
        ops = ", ".join(self.operations)
        return f"{self.description} (operations: {ops})" if ops else self.description


# ---------------------------------------------------------------------------
# Tag-based check (Lemma 13.16 of [22])
# ---------------------------------------------------------------------------

def _tag_order(op_a: Operation, op_b: Operation) -> bool:
    """The partial order ``op_a < op_b`` from the paper's atomicity proof.

    Operations without a tag have not been linearized by the
    implementation (incomplete, or dropped); they are unordered with
    respect to everything rather than an error, so a raw recorder history
    can never crash the checker.
    """
    if op_a.tag is None or op_b.tag is None:
        return False
    if op_a.tag < op_b.tag:
        return True
    if op_a.tag == op_b.tag:
        return op_a.kind == WRITE and op_b.kind == READ
    return False


def check_atomicity_by_tags(history: History) -> Optional[AtomicityViolation]:
    """Check atomicity using the implementation-provided tags.

    The checker drops incomplete operations itself (the paper's
    Lemma 13.16 assumes all invoked operations complete; an invoked-but-
    unfinished operation is not yet linearized and is allowed to be
    dropped), so callers may pass histories straight from the recorder --
    pre-filtering with ``history.complete()`` is unnecessary.  A *completed*
    operation without a tag is still a violation: the implementation
    responded without linearizing it.

    Returns ``None`` when the history satisfies properties P1-P3, or an
    :class:`AtomicityViolation` describing the first problem found.
    """
    for object_id in history.object_ids() or ["object-0"]:
        sub_history = history.for_object(object_id).complete()
        operations = sub_history.operations

        # P2: writes must carry distinct tags (total order on writes).
        writes_by_tag: Dict[Any, Operation] = {}
        for op in operations:
            if op.tag is None:
                return AtomicityViolation(
                    "operation is missing a tag", (op.op_id,)
                )
            if op.kind == WRITE:
                existing = writes_by_tag.get(op.tag)
                if existing is not None:
                    return AtomicityViolation(
                        "two writes share the same tag", (existing.op_id, op.op_id)
                    )
                writes_by_tag[op.tag] = op

        # P1: the tag order must not contradict real-time precedence.
        for earlier in operations:
            for later in operations:
                if earlier is later or not earlier.precedes(later):
                    continue
                if _tag_order(later, earlier):
                    return AtomicityViolation(
                        "tag order contradicts real-time order",
                        (earlier.op_id, later.op_id),
                    )

        # P3: every read returns the value of the write with the same tag,
        # or the initial value if its tag is the initial tag (no such write).
        for op in operations:
            if op.kind != READ:
                continue
            matching_write = writes_by_tag.get(op.tag)
            if matching_write is None:
                if op.value != sub_history.initial_value:
                    return AtomicityViolation(
                        "read returned a value never written (and not the initial value)",
                        (op.op_id,),
                    )
            elif op.value != matching_write.value:
                return AtomicityViolation(
                    "read returned a value inconsistent with its tag's write",
                    (op.op_id, matching_write.op_id),
                )
    return None


# ---------------------------------------------------------------------------
# General search-based linearizability checker
# ---------------------------------------------------------------------------

class LinearizabilityChecker:
    """Search-based linearizability checker for a single read/write register.

    The checker explores linearization orders with memoisation on the set
    of already-linearized operations together with the register value at
    that point.  Incomplete operations are treated as optional: they may
    take effect at any point after their invocation or never (standard
    crash semantics for pending operations).
    """

    def __init__(self, max_states: int = 2_000_000) -> None:
        self.max_states = max_states
        self._states_explored = 0

    def check(self, history: History) -> Optional[AtomicityViolation]:
        """Return ``None`` if the history is linearizable, else a violation."""
        for object_id in history.object_ids() or ["object-0"]:
            sub_history = history.for_object(object_id)
            violation = self._check_single_object(sub_history)
            if violation is not None:
                return violation
        return None

    # -- internals -----------------------------------------------------------

    def _check_single_object(self, history: History) -> Optional[AtomicityViolation]:
        operations = history.operations
        complete_ops = [op for op in operations if op.is_complete]
        pending_ops = [op for op in operations if not op.is_complete]
        self._states_explored = 0

        ordered = sorted(operations, key=lambda op: op.invoked_at)
        index_of = {op.op_id: i for i, op in enumerate(ordered)}
        total = len(ordered)

        # Precompute real-time predecessors: op j must be linearized before
        # op i may be linearized if j responded before i was invoked.
        must_precede: List[Set[int]] = [set() for _ in range(total)]
        for i, op_i in enumerate(ordered):
            for j, op_j in enumerate(ordered):
                if i != j and op_j.precedes(op_i):
                    must_precede[i].add(j)

        complete_indices = frozenset(
            index_of[op.op_id] for op in complete_ops
        )
        del pending_ops

        seen: Set[Tuple[FrozenSet[int], Any]] = set()

        def search(linearized: FrozenSet[int], value: Any) -> bool:
            self._states_explored += 1
            if self._states_explored > self.max_states:
                raise RuntimeError(
                    "linearizability search exceeded its state budget; "
                    "use the tag-based checker for histories this concurrent"
                )
            if complete_indices <= linearized:
                return True
            key = (linearized, value)
            if key in seen:
                return False
            seen.add(key)
            for i, op in enumerate(ordered):
                if i in linearized:
                    continue
                # Real-time order: all operations that responded before this
                # one was invoked must already be linearized.
                if not must_precede[i] <= linearized:
                    # If op i is complete and some unlinearized op must precede
                    # it, we may still pick that other op first; just skip i.
                    continue
                if op.kind == WRITE:
                    if search(linearized | {i}, op.value):
                        return True
                else:  # READ
                    if op.is_complete and op.value != value:
                        continue
                    if search(linearized | {i}, value):
                        return True
                # Incomplete operations may also simply never take effect; that
                # case is covered because they are not in complete_indices and
                # we do not require them to be linearized.
            return False

        if search(frozenset(), history.initial_value):
            return None
        return AtomicityViolation(
            "no linearization of the history exists",
            tuple(op.op_id for op in complete_ops),
        )


__all__ = ["AtomicityViolation", "LinearizabilityChecker", "check_atomicity_by_tags"]
