"""Unit tests for operation histories."""

import math

import pytest

from repro.consistency.history import History, Operation, OperationRecorder, READ, WRITE


def op(op_id, kind, invoked, responded=None, value=None, client="c1", tag=None, obj="object-0"):
    return Operation(op_id=op_id, client_id=client, kind=kind, object_id=obj,
                     value=value, invoked_at=invoked, responded_at=responded, tag=tag)


class TestOperation:
    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            op("o1", "append", 0.0)

    def test_response_before_invocation_rejected(self):
        with pytest.raises(ValueError):
            op("o1", WRITE, 5.0, responded=1.0)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_invocation_time_rejected(self, time):
        with pytest.raises(ValueError, match="finite"):
            op("o1", WRITE, time, responded=2.0)

    @pytest.mark.parametrize("time", [math.nan, math.inf])
    def test_non_finite_response_time_rejected(self, time):
        with pytest.raises(ValueError, match="finite"):
            op("o1", WRITE, 1.0, responded=time)

    def test_completeness_and_duration(self):
        complete = op("o1", WRITE, 1.0, responded=4.0)
        pending = op("o2", READ, 2.0)
        assert complete.is_complete and complete.duration == pytest.approx(3.0)
        assert not pending.is_complete and pending.duration is None

    def test_precedence_and_concurrency(self):
        first = op("o1", WRITE, 0.0, responded=1.0)
        second = op("o2", READ, 2.0, responded=3.0)
        overlapping = op("o3", READ, 0.5, responded=2.5)
        assert first.precedes(second)
        assert not second.precedes(first)
        assert first.concurrent_with(overlapping)
        assert overlapping.concurrent_with(second)


class TestHistory:
    def test_filters(self):
        history = History([
            op("w1", WRITE, 0, 1, value=b"a"),
            op("r1", READ, 2, 3, value=b"a"),
            op("r2", READ, 4),
        ])
        assert len(history) == 3
        assert len(history.complete()) == 2
        assert len(history.writes()) == 1
        assert len(history.reads()) == 2

    def test_for_object(self):
        history = History([
            op("w1", WRITE, 0, 1, obj="x"),
            op("w2", WRITE, 0, 1, obj="y"),
        ])
        assert [o.op_id for o in history.for_object("x")] == ["w1"]
        assert history.object_ids() == ["x", "y"]

    def test_well_formedness(self):
        good = History([
            op("w1", WRITE, 0, 1, client="c"),
            op("w2", WRITE, 2, 3, client="c"),
        ])
        bad = History([
            op("w1", WRITE, 0, 5, client="c"),
            op("w2", WRITE, 2, 3, client="c"),
        ])
        assert good.is_well_formed()
        assert not bad.is_well_formed()

    def test_incomplete_then_new_operation_is_ill_formed(self):
        history = History([
            op("w1", WRITE, 0, None, client="c"),
            op("w2", WRITE, 2, 3, client="c"),
        ])
        assert not history.is_well_formed()

    def test_latencies(self):
        history = History([
            op("w1", WRITE, 0, 2),
            op("r1", READ, 0, 5),
            op("r2", READ, 0),
        ])
        assert history.latencies(WRITE) == [2]
        assert history.latencies(READ) == [5]
        assert sorted(history.latencies()) == [2, 5]


class TestRecorder:
    def test_invoke_respond_roundtrip(self):
        recorder = OperationRecorder(initial_value=b"init")
        recorder.invoke("w1", "c1", WRITE, "object-0", b"v", time=1.0)
        recorder.invoke("r1", "c2", READ, "object-0", None, time=2.0)
        recorder.respond("w1", time=3.0, tag="t1")
        recorder.respond("r1", time=4.0, value=b"v", tag="t1")
        history = recorder.history()
        assert recorder.incomplete_count == 0
        assert history.initial_value == b"init"
        reads = history.reads()
        assert reads[0].value == b"v"
        assert reads[0].tag == "t1"

    def test_duplicate_invoke_rejected(self):
        recorder = OperationRecorder()
        recorder.invoke("w1", "c1", WRITE, "object-0", b"v", 0.0)
        with pytest.raises(ValueError):
            recorder.invoke("w1", "c1", WRITE, "object-0", b"v", 1.0)

    def test_respond_without_invoke_rejected(self):
        with pytest.raises(ValueError):
            OperationRecorder().respond("nope", time=1.0)

    def test_incomplete_operations_included_in_history(self):
        recorder = OperationRecorder()
        recorder.invoke("w1", "c1", WRITE, "object-0", b"v", 0.0)
        history = recorder.history()
        assert len(history) == 1
        assert not history.operations[0].is_complete
        assert recorder.incomplete_count == 1

    def test_write_response_keeps_written_value(self):
        recorder = OperationRecorder()
        recorder.invoke("w1", "c1", WRITE, "object-0", b"payload", 0.0)
        recorder.respond("w1", time=1.0, value=None, tag="t")
        assert recorder.history().writes()[0].value == b"payload"
