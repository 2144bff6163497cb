"""Unit tests for the Chrome trace_event recorder."""

from __future__ import annotations

import json

from repro.obs.trace import TRACE_PID, TS_SCALE, TraceRecorder


def _events(trace, ph):
    return [event for event in trace.events if event["ph"] == ph]


class TestRootSpans:
    def test_begin_end_pair_shares_id_and_track(self):
        trace = TraceRecorder()
        trace.begin_op("h1", "write", "obj-0", 10.0, args={"writer": "w0"})
        trace.end_op("h1", 14.0, args={"tag": "(1, 'w0')"})
        begin, = _events(trace, "b")
        end, = _events(trace, "e")
        assert begin["id"] == end["id"] == "h1"
        assert begin["tid"] == end["tid"]
        assert begin["name"] == end["name"] == "write obj-0"
        assert begin["ts"] == 10.0 * TS_SCALE
        assert end["ts"] == 14.0 * TS_SCALE
        assert begin["args"] == {"writer": "w0"}

    def test_tracks_are_per_key_with_thread_names(self):
        trace = TraceRecorder()
        trace.begin_op("h1", "write", "obj-0", 0.0)
        trace.begin_op("h2", "read", "obj-1", 0.0)
        trace.begin_op("h3", "read", "obj-0", 1.0)
        metadata = _events(trace, "M")
        names = {event["args"]["name"] for event in metadata}
        assert names == {"key obj-0", "key obj-1"}
        begins = _events(trace, "b")
        assert begins[0]["tid"] == begins[2]["tid"]
        assert begins[0]["tid"] != begins[1]["tid"]

    def test_open_handles_tracks_unclosed_roots(self):
        trace = TraceRecorder()
        trace.begin_op("h1", "write", "obj-0", 0.0)
        trace.begin_op("h2", "read", "obj-0", 0.0)
        trace.end_op("h2", 5.0)
        assert trace.open_handles() == ["h1"]

    def test_end_of_unknown_handle_is_noop(self):
        trace = TraceRecorder()
        trace.end_op("ghost", 1.0)
        assert trace.events == []


class TestChildren:
    def test_child_span_carries_parent_and_roots_track(self):
        trace = TraceRecorder()
        trace.begin_op("h1", "write", "obj-0", 0.0)
        trace.child_span("h1", "forward-hop pool-1", "replica", 1.0, 3.0,
                         args={"from": "pool-1"})
        children = trace.children_of("h1")
        span, = children
        assert span["args"]["parent"] == "h1"
        assert span["args"]["from"] == "pool-1"
        assert span["tid"] == trace.events[1]["tid"]

    def test_children_of_a_known_root_make_no_cluster_track(self):
        trace = TraceRecorder()
        trace.begin_op("h1", "write", "k", 0.0)
        trace.child_span("h1", "protocol-write", "lds", 0.0, 1.0)
        trace.child_instant("h1", "read-repair pool-2", "replica", 0.5)
        trace.begin_op("h2", "read", "j", 2.0)
        names = [event["args"]["name"] for event in _events(trace, "M")]
        assert names == ["key k", "key j"]
        assert _events(trace, "b")[-1]["tid"] == 2

    def test_child_instant_is_ph_n(self):
        trace = TraceRecorder()
        trace.begin_op("h1", "read", "obj-0", 0.0)
        trace.child_instant("h1", "read-repair pool-2", "replica", 4.0)
        instant, = _events(trace, "n")
        assert instant["args"]["parent"] == "h1"

    def test_orphan_child_lands_on_cluster_track(self):
        trace = TraceRecorder()
        trace.child_instant("unknown", "stray", "replica", 1.0)
        instant, = _events(trace, "n")
        metadata, = _events(trace, "M")
        assert metadata["args"]["name"] == "cluster"
        assert instant["tid"] == metadata["tid"]


class TestGlobalEvents:
    def test_instant_and_counter(self):
        trace = TraceRecorder()
        trace.instant("kill-pool: pool-0", 100.0)
        trace.counter("replication lag", 100.0, {"max": 6})
        instant, = _events(trace, "i")
        counter, = _events(trace, "C")
        assert instant["s"] == "p"
        assert counter["args"] == {"max": 6}


class TestQueriesAndOutput:
    def test_spans_filters_by_prefix(self):
        trace = TraceRecorder()
        trace.begin_op("h1", "write", "obj-0", 0.0)
        trace.begin_op("h2", "read", "obj-0", 0.0)
        assert len(trace.spans("write ")) == 1
        assert len(trace.spans("read ")) == 1
        assert len(trace.spans()) == 2

    def test_to_json_and_write_roundtrip(self, tmp_path):
        trace = TraceRecorder()
        trace.begin_op("h1", "write", "obj-0", 2.5)
        trace.end_op("h1", 3.5)
        path = tmp_path / "trace.json"
        trace.write(path)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["traceEvents"] == trace.to_json()["traceEvents"]
        assert all(event["pid"] == TRACE_PID
                   for event in payload["traceEvents"])
