"""Property-based tests for tags and the consistency checkers."""

from hypothesis import given, settings, strategies as st

from repro.consistency.history import History, Operation, READ, WRITE
from repro.consistency.linearizability import check_atomicity
from repro.core.tags import Tag

tag_strategy = st.builds(
    Tag,
    z=st.integers(min_value=0, max_value=20),
    writer_id=st.sampled_from(["", "w-a", "w-b", "w-c"]),
)


class TestTagProperties:
    @given(tag_strategy, tag_strategy)
    def test_total_order_antisymmetry(self, a, b):
        assert (a < b) + (b < a) + (a == b) == 1

    @given(tag_strategy, tag_strategy, tag_strategy)
    def test_transitivity(self, a, b, c):
        if a < b and b < c:
            assert a < c

    @given(tag_strategy, st.sampled_from(["w-a", "w-b"]))
    def test_next_tag_always_dominates(self, tag, writer):
        assert tag.next_tag(writer) > tag

    @given(st.lists(tag_strategy, min_size=1, max_size=20))
    def test_max_is_an_upper_bound(self, tags):
        maximum = max(tags)
        assert all(tag <= maximum for tag in tags)


@st.composite
def sequential_histories(draw):
    """Histories produced by a single client issuing ops one after another.

    By construction these are atomic, so the checker must accept them.
    """
    length = draw(st.integers(min_value=1, max_value=8))
    operations = []
    time = 0.0
    current_value = b"init"
    current_tag = Tag.initial()
    for index in range(length):
        duration = draw(st.floats(min_value=0.1, max_value=5.0))
        is_write = draw(st.booleans())
        if is_write:
            current_value = bytes([index + 1])
            current_tag = current_tag.next_tag("w")
            operations.append(Operation(
                op_id=f"op{index}", client_id="client", kind=WRITE, value=current_value,
                invoked_at=time, responded_at=time + duration, tag=current_tag,
            ))
        else:
            operations.append(Operation(
                op_id=f"op{index}", client_id="client", kind=READ, value=current_value,
                invoked_at=time, responded_at=time + duration, tag=current_tag,
            ))
        time += duration + draw(st.floats(min_value=0.01, max_value=2.0))
    return History(operations, initial_value=b"init")


class TestCheckerProperties:
    @settings(max_examples=50, deadline=None)
    @given(sequential_histories())
    def test_sequential_histories_are_always_accepted(self, history):
        assert check_atomicity(history) is None

    @settings(max_examples=50, deadline=None)
    @given(sequential_histories())
    def test_corrupting_a_read_value_is_always_detected_by_tag_checker(self, history):
        reads = [op for op in history.operations if op.kind == READ and op.tag != Tag.initial()]
        if not reads:
            return
        corrupted_ops = []
        target = reads[-1].op_id
        for op in history.operations:
            if op.op_id == target:
                corrupted_ops.append(Operation(
                    op_id=op.op_id, client_id=op.client_id, kind=op.kind,
                    value=b"\xff\xfe never written", invoked_at=op.invoked_at,
                    responded_at=op.responded_at, tag=op.tag,
                ))
            else:
                corrupted_ops.append(op)
        corrupted = History(corrupted_ops, initial_value=b"init")
        assert check_atomicity(corrupted) is not None
