"""Unit tests for the atomicity checker, and its differential against the
exhaustive oracle in ``linearizability_oracle.py``."""

from hypothesis import given, settings, strategies as st

import linearizability_oracle
from repro.consistency.history import History, Operation, READ, WRITE
from repro.consistency.linearizability import check_atomicity
from repro.core.tags import Tag


def op(op_id, kind, invoked, responded, value=None, tag=None, client=None):
    return Operation(
        op_id=op_id, client_id=client or op_id, kind=kind, object_id="object-0",
        value=value, invoked_at=invoked, responded_at=responded, tag=tag,
    )


def atomic(history):
    """``check_atomicity``'s verdict, asserted equal to the oracle's on the
    completed operations (the ones the checker keeps)."""
    verdict = check_atomicity(history) is None
    assert verdict == linearizability_oracle.is_linearizable(history.complete())
    return verdict


class TestTagBasedChecker:
    """Reads are mapped to their writes by tag."""

    def test_sequential_history_is_atomic(self):
        history = History([
            op("w1", WRITE, 0, 1, value=b"a", tag=Tag(1, "w")),
            op("r1", READ, 2, 3, value=b"a", tag=Tag(1, "w")),
        ], initial_value=b"init")
        assert check_atomicity(history) is None

    def test_read_of_initial_value_is_atomic(self):
        history = History([
            op("r1", READ, 0, 1, value=b"init", tag=Tag.initial()),
        ], initial_value=b"init")
        assert check_atomicity(history) is None

    def test_read_of_never_written_value_is_a_violation(self):
        history = History([
            op("r1", READ, 0, 1, value=b"junk", tag=Tag.initial()),
        ], initial_value=b"init")
        violation = check_atomicity(history)
        assert violation is not None

    def test_stale_read_after_write_is_a_violation(self):
        # The read starts after the write completed but returns the initial value.
        history = History([
            op("w1", WRITE, 0, 1, value=b"new", tag=Tag(5, "w")),
            op("r1", READ, 2, 3, value=b"init", tag=Tag.initial()),
        ], initial_value=b"init")
        violation = check_atomicity(history)
        assert violation is not None
        assert "real-time" in violation.description

    def test_duplicate_write_tags_are_a_violation(self):
        # The bug once planted in the L1 server: two writes share a tag.
        for second_invoked in (2, 0):
            history = History([
                op("w1", WRITE, 0, 1, value=b"a", tag=Tag(1, "w")),
                op("w2", WRITE, second_invoked, 3, value=b"b", tag=Tag(1, "w")),
            ])
            violation = check_atomicity(history)
            assert violation is not None
            assert "same tag" in violation.description

    def test_read_value_must_match_the_write_with_its_tag(self):
        history = History([
            op("w1", WRITE, 0, 1, value=b"a", tag=Tag(1, "w")),
            op("r1", READ, 2, 3, value=b"b", tag=Tag(1, "w")),
        ])
        assert check_atomicity(history) is not None

    def test_concurrent_operations_may_order_either_way(self):
        history = History([
            op("w1", WRITE, 0, 10, value=b"a", tag=Tag(1, "w1")),
            op("w2", WRITE, 0, 10, value=b"b", tag=Tag(2, "w2")),
            op("r1", READ, 5, 12, value=b"b", tag=Tag(2, "w2")),
        ], initial_value=b"init")
        assert atomic(history)

    def test_missing_tag_reported(self):
        history = History([op("w1", WRITE, 0, 1, value=b"a", tag=None)])
        violation = check_atomicity(history)
        assert violation is not None
        assert "missing" in violation.description

    def test_write_read_with_same_tag_ordered_write_first(self):
        # A read that returns a concurrent write's value (same tag) is fine
        # even though the read responds before the write does.
        history = History([
            op("w1", WRITE, 0, 10, value=b"a", tag=Tag(1, "w")),
            op("r1", READ, 1, 5, value=b"a", tag=Tag(1, "w")),
        ], initial_value=b"init")
        assert atomic(history)

    def test_read_that_responds_before_its_write_is_invoked_is_a_violation(self):
        history = History([
            op("r1", READ, 0, 1, value=b"a", tag=Tag(1, "w")),
            op("w1", WRITE, 2, 3, value=b"a", tag=Tag(1, "w")),
        ], initial_value=b"init")
        assert not atomic(history)
        assert "real-time" in check_atomicity(history).description

    def test_tags_that_contradict_real_time_order_nothing(self):
        # Linearizable as w1, w2, r1, though w1's tag is the larger: the
        # tag only names the write a read returns.
        history = History([
            op("w1", WRITE, 0, 1, value=b"a", tag=Tag(2, "w")),
            op("w2", WRITE, 2, 3, value=b"b", tag=Tag(1, "w")),
            op("r1", READ, 4, 5, value=b"b", tag=Tag(1, "w")),
        ], initial_value=b"init")
        assert atomic(history)

    def test_long_sequential_history(self):
        # 1,200 operations: far past what the exhaustive search can take.
        operations = []
        for index in range(600):
            tag = Tag(index + 1, "w")
            value = index.to_bytes(2, "big")
            operations += [
                op(f"w{index}", WRITE, 4 * index, 4 * index + 1, value=value, tag=tag),
                op(f"r{index}", READ, 4 * index + 2, 4 * index + 3, value=value, tag=tag),
            ]
        assert check_atomicity(History(operations, initial_value=b"init")) is None
        stale = operations[:-1] + [op("r599", READ, 2398, 2399, value=b"init",
                                      tag=Tag.initial())]
        assert check_atomicity(History(stale, initial_value=b"init")) is not None

    def test_multi_object_histories_checked_per_object(self):
        history = History([
            Operation(op_id="w1", client_id="c1", kind=WRITE, object_id="x",
                      value=b"a", invoked_at=0, responded_at=1, tag=Tag(1, "w")),
            Operation(op_id="r1", client_id="c2", kind=READ, object_id="y",
                      value=b"init", invoked_at=2, responded_at=3, tag=Tag.initial()),
        ], initial_value=b"init")
        assert check_atomicity(history) is None


class TestSearchChecker:
    """Cases first written for the exhaustive search, now tagged."""

    def test_sequential_history(self):
        history = History([
            op("w1", WRITE, 0, 1, value=b"a", tag=Tag(1, "w")),
            op("r1", READ, 2, 3, value=b"a", tag=Tag(1, "w")),
            op("w2", WRITE, 4, 5, value=b"b", tag=Tag(2, "w")),
            op("r2", READ, 6, 7, value=b"b", tag=Tag(2, "w")),
        ], initial_value=b"init")
        assert atomic(history)

    def test_read_of_initial_value(self):
        history = History([op("r1", READ, 0, 1, value=b"init", tag=Tag.initial())],
                          initial_value=b"init")
        assert atomic(history)

    def test_new_old_inversion_detected(self):
        # r1 sees the new value, then the later r2 sees the old one: not atomic.
        history = History([
            op("w1", WRITE, 0, 20, value=b"new", tag=Tag(1, "w")),
            op("r1", READ, 1, 2, value=b"new", tag=Tag(1, "w")),
            op("r2", READ, 3, 4, value=b"init", tag=Tag.initial()),
        ], initial_value=b"init")
        assert not atomic(history)

    def test_stale_read_detected(self):
        history = History([
            op("w1", WRITE, 0, 1, value=b"new", tag=Tag(1, "w")),
            op("r1", READ, 2, 3, value=b"init", tag=Tag.initial()),
        ], initial_value=b"init")
        assert not atomic(history)

    def test_concurrent_reads_may_disagree_in_either_order(self):
        history = History([
            op("w1", WRITE, 0, 10, value=b"new", tag=Tag(1, "w")),
            op("r1", READ, 1, 9, value=b"new", tag=Tag(1, "w")),
            op("r2", READ, 1, 9, value=b"init", tag=Tag.initial()),
        ], initial_value=b"init")
        assert atomic(history)

    def test_agrees_with_tag_checker_on_lds_like_history(self):
        history = History([
            op("w1", WRITE, 0, 5, value=b"a", tag=Tag(1, "w1")),
            op("w2", WRITE, 3, 8, value=b"b", tag=Tag(2, "w2")),
            op("r1", READ, 6, 9, value=b"b", tag=Tag(2, "w2")),
            op("r2", READ, 10, 12, value=b"b", tag=Tag(2, "w2")),
        ], initial_value=b"init")
        assert atomic(history)


class TestIncompleteOperations:
    """The checker drops incomplete operations itself: raw recorder
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
        assert check_atomicity(history) is None

    def test_read_of_pending_write_flagged(self):
        # The pending write is dropped, so a read of its value names no
        # write; a read that does not see it passes.
        pending = op("w1", WRITE, 0, None, value=b"new")
        assert check_atomicity(History([
            pending, op("r1", READ, 1, 2, value=b"init", tag=Tag.initial()),
        ], initial_value=b"init")) is None
        assert check_atomicity(History([
            pending, op("r1", READ, 1, 2, value=b"new", tag=Tag(1, "w")),
        ], initial_value=b"init")) is not None


@st.composite
def concurrent_histories(draw):
    """At most 7 operations on one register with small integer times (so
    ties occur), distinct write values and shuffled write tags; each read
    carries its write's tag and value, or the initial ones."""
    specs = draw(st.lists(st.tuples(
        st.booleans(), st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=7),
    ), min_size=1, max_size=7))
    ranks = draw(st.permutations(range(1, 8)))
    writes = [index for index, spec in enumerate(specs) if spec[0]]
    tags = {index: Tag(rank, "w") for index, rank in zip(writes, ranks)}
    operations = []
    for index, (is_write, invoked, duration, pick) in enumerate(specs):
        source = index if is_write else ([None] + writes)[pick % (len(writes) + 1)]
        operations.append(op(
            f"op{index}", WRITE if is_write else READ, invoked, invoked + duration,
            value=b"init" if source is None else bytes([source]),
            tag=Tag.initial() if source is None else tags[source],
        ))
    return History(operations, initial_value=b"init")


class TestOracleDifferential:
    @settings(max_examples=200, deadline=None)
    @given(concurrent_histories())
    def test_check_atomicity_matches_the_oracle(self, history):
        assert (check_atomicity(history) is None) == \
            linearizability_oracle.is_linearizable(history)
