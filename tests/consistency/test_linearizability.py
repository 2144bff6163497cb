"""Unit tests for the atomicity / linearizability checkers."""

import pytest

from repro.consistency.history import History, Operation, READ, WRITE
from repro.consistency.linearizability import (
    LinearizabilityChecker,
    check_atomicity_by_tags,
)
from repro.core.tags import Tag


def op(op_id, kind, invoked, responded, value=None, tag=None, client=None):
    return Operation(
        op_id=op_id, client_id=client or op_id, kind=kind, object_id="object-0",
        value=value, invoked_at=invoked, responded_at=responded, tag=tag,
    )


class TestTagBasedChecker:
    def test_sequential_history_is_atomic(self):
        history = History([
            op("w1", WRITE, 0, 1, value=b"a", tag=Tag(1, "w")),
            op("r1", READ, 2, 3, value=b"a", tag=Tag(1, "w")),
        ], initial_value=b"init")
        assert check_atomicity_by_tags(history) is None

    def test_read_of_initial_value_is_atomic(self):
        history = History([
            op("r1", READ, 0, 1, value=b"init", tag=Tag.initial()),
        ], initial_value=b"init")
        assert check_atomicity_by_tags(history) is None

    def test_read_of_never_written_value_is_a_violation(self):
        history = History([
            op("r1", READ, 0, 1, value=b"junk", tag=Tag.initial()),
        ], initial_value=b"init")
        violation = check_atomicity_by_tags(history)
        assert violation is not None

    def test_stale_read_after_write_is_a_violation(self):
        # The read starts after the write completed but carries a smaller tag.
        history = History([
            op("w1", WRITE, 0, 1, value=b"new", tag=Tag(5, "w")),
            op("r1", READ, 2, 3, value=b"init", tag=Tag.initial()),
        ], initial_value=b"init")
        violation = check_atomicity_by_tags(history)
        assert violation is not None
        assert "real-time" in violation.description

    def test_duplicate_write_tags_are_a_violation(self):
        history = History([
            op("w1", WRITE, 0, 1, value=b"a", tag=Tag(1, "w")),
            op("w2", WRITE, 2, 3, value=b"b", tag=Tag(1, "w")),
        ])
        violation = check_atomicity_by_tags(history)
        assert violation is not None
        assert "same tag" in violation.description

    def test_read_value_must_match_the_write_with_its_tag(self):
        history = History([
            op("w1", WRITE, 0, 1, value=b"a", tag=Tag(1, "w")),
            op("r1", READ, 2, 3, value=b"b", tag=Tag(1, "w")),
        ])
        assert check_atomicity_by_tags(history) is not None

    def test_concurrent_operations_may_order_either_way(self):
        history = History([
            op("w1", WRITE, 0, 10, value=b"a", tag=Tag(1, "w1")),
            op("w2", WRITE, 0, 10, value=b"b", tag=Tag(2, "w2")),
            op("r1", READ, 5, 12, value=b"b", tag=Tag(2, "w2")),
        ], initial_value=b"init")
        assert check_atomicity_by_tags(history) is None

    def test_missing_tag_reported(self):
        history = History([op("w1", WRITE, 0, 1, value=b"a", tag=None)])
        violation = check_atomicity_by_tags(history)
        assert violation is not None
        assert "missing" in violation.description

    def test_write_read_with_same_tag_ordered_write_first(self):
        # A read that returns a concurrent write's value (same tag) is fine
        # even though the read responds before the write does.
        history = History([
            op("w1", WRITE, 0, 10, value=b"a", tag=Tag(1, "w")),
            op("r1", READ, 1, 5, value=b"a", tag=Tag(1, "w")),
        ], initial_value=b"init")
        assert check_atomicity_by_tags(history) is None

    def test_multi_object_histories_checked_per_object(self):
        history = History([
            Operation(op_id="w1", client_id="c1", kind=WRITE, object_id="x",
                      value=b"a", invoked_at=0, responded_at=1, tag=Tag(1, "w")),
            Operation(op_id="r1", client_id="c2", kind=READ, object_id="y",
                      value=b"init", invoked_at=2, responded_at=3, tag=Tag.initial()),
        ], initial_value=b"init")
        assert check_atomicity_by_tags(history) is None


class TestSearchChecker:
    def test_sequential_history(self):
        history = History([
            op("w1", WRITE, 0, 1, value=b"a"),
            op("r1", READ, 2, 3, value=b"a"),
            op("w2", WRITE, 4, 5, value=b"b"),
            op("r2", READ, 6, 7, value=b"b"),
        ], initial_value=b"init")
        assert LinearizabilityChecker().check(history) is None

    def test_read_of_initial_value(self):
        history = History([op("r1", READ, 0, 1, value=b"init")], initial_value=b"init")
        assert LinearizabilityChecker().check(history) is None

    def test_new_old_inversion_detected(self):
        # r1 sees the new value, then the later r2 sees the old one: not atomic.
        history = History([
            op("w1", WRITE, 0, 20, value=b"new"),
            op("r1", READ, 1, 2, value=b"new"),
            op("r2", READ, 3, 4, value=b"init"),
        ], initial_value=b"init")
        assert LinearizabilityChecker().check(history) is not None

    def test_stale_read_detected(self):
        history = History([
            op("w1", WRITE, 0, 1, value=b"new"),
            op("r1", READ, 2, 3, value=b"init"),
        ], initial_value=b"init")
        assert LinearizabilityChecker().check(history) is not None

    def test_concurrent_reads_may_disagree_in_either_order(self):
        history = History([
            op("w1", WRITE, 0, 10, value=b"new"),
            op("r1", READ, 1, 9, value=b"new"),
            op("r2", READ, 1, 9, value=b"init"),
        ], initial_value=b"init")
        assert LinearizabilityChecker().check(history) is None

    def test_incomplete_write_may_or_may_not_take_effect(self):
        incomplete_visible = History([
            op("w1", WRITE, 0, None, value=b"new"),
            op("r1", READ, 1, 2, value=b"new"),
        ], initial_value=b"init")
        incomplete_invisible = History([
            op("w1", WRITE, 0, None, value=b"new"),
            op("r1", READ, 1, 2, value=b"init"),
        ], initial_value=b"init")
        checker = LinearizabilityChecker()
        assert checker.check(incomplete_visible) is None
        assert checker.check(incomplete_invisible) is None

    def test_agrees_with_tag_checker_on_lds_like_history(self):
        history = History([
            op("w1", WRITE, 0, 5, value=b"a", tag=Tag(1, "w1")),
            op("w2", WRITE, 3, 8, value=b"b", tag=Tag(2, "w2")),
            op("r1", READ, 6, 9, value=b"b", tag=Tag(2, "w2")),
            op("r2", READ, 10, 12, value=b"b", tag=Tag(2, "w2")),
        ], initial_value=b"init")
        assert check_atomicity_by_tags(history) is None
        assert LinearizabilityChecker().check(history) is None

    def test_state_budget_guard(self):
        operations = [
            op(f"w{i}", WRITE, 0, 100, value=bytes([i])) for i in range(12)
        ]
        history = History(operations, initial_value=b"init")
        checker = LinearizabilityChecker(max_states=5)
        with pytest.raises(RuntimeError):
            checker.check(history)


class TestIncompleteOperations:
    """The checker owns the drop-incomplete semantics: raw recorder
    histories (pending operations carry no tag) must be checkable without
    pre-filtering and without crashing."""

    def test_raw_history_with_pending_write_passes(self):
        history = History([
            op("w1", WRITE, 0, 1, value=b"a", tag=Tag(1, "w0")),
            op("r1", READ, 2, 3, value=b"a", tag=Tag(1, "w0")),
            Operation(op_id="w2", client_id="w2", kind=WRITE,
                      object_id="object-0", value=b"b", invoked_at=4,
                      responded_at=None, tag=None),
        ], initial_value=b"init")
        assert check_atomicity_by_tags(history) is None

    def test_tag_order_treats_untagged_ops_as_unordered(self):
        from repro.consistency.linearizability import _tag_order

        tagged = op("w1", WRITE, 0, 1, value=b"a", tag=Tag(1, "w0"))
        untagged = op("w2", WRITE, 2, 3, value=b"b", tag=None)
        assert not _tag_order(tagged, untagged)
        assert not _tag_order(untagged, tagged)
