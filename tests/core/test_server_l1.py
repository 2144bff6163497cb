"""Focused unit tests for L1 server state transitions (Figure 2 invariants)."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import messages as msg
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.core.tags import Tag
from repro.net.broadcast import BroadcastEnvelope
from repro.net.latency import FixedLatencyModel
from repro.net.messages import Message


def build_system():
    config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
    return LDSSystem(config, num_writers=2, num_readers=2,
                     latency_model=FixedLatencyModel())


class TestListInvariants:
    def test_initial_state(self):
        system = build_system()
        for server in system.l1_servers:
            assert server.committed_tag == Tag.initial()
            assert server.max_list_tag() == Tag.initial()
            assert server.value_for(Tag.initial()) is None

    def test_lemma_iv2_values_in_list_are_at_least_the_committed_tag(self):
        # Lemma IV.2: any (tag, value) pair still holding a value satisfies
        # tag >= tc.  Check after a batch of writes and reads.
        system = build_system()
        for index in range(3):
            system.invoke_write(bytes([index + 1]) * 4, writer=index % 2, at=index * 20.0)
        system.invoke_read(reader=0, at=3.0)
        system.run_until_idle()
        for server in system.l1_servers:
            for tag, value in server.list_storage.items():
                if value is not None:
                    assert tag >= server.committed_tag

    def test_lemma_iv1_committed_tag_is_monotone(self):
        # Track tc after each quiescent point; it must never decrease.
        system = build_system()
        previous = {server.pid: server.committed_tag for server in system.l1_servers}
        for index in range(4):
            system.write(bytes([index + 1]))
            system.run_until_idle()
            for server in system.l1_servers:
                assert server.committed_tag >= previous[server.pid]
                previous[server.pid] = server.committed_tag

    def test_garbage_collection_replaces_old_values_with_bottom(self):
        system = build_system()
        first = system.write(b"first")
        system.run_until_idle()
        system.write(b"second")
        system.run_until_idle()
        for server in system.l1_servers:
            assert server.value_for(first.tag) is None  # value gone, tag may remain

    def test_list_keeps_tag_metadata_after_gc(self):
        system = build_system()
        result = system.write(b"metadata stays")
        system.run_until_idle()
        for server in system.l1_servers:
            assert result.tag in server.list_storage
            assert server.max_list_tag() >= result.tag


class TestInternalOperations:
    def test_write_to_l2_started_once_per_tag_per_server(self):
        system = build_system()
        system.write(b"offload once")
        system.run_until_idle()
        # WRITE-CODE-ELEM messages: at most one per (L1 server, L2 server).
        sent = system.network.costs.messages_by_kind.get("WriteCodeElem", 0)
        assert sent <= system.config.n1 * system.config.n2

    def test_registered_readers_are_cleared_after_reads_finish(self):
        system = build_system()
        system.write(b"v")
        system.run_until_idle()
        system.read()
        system.run_until_idle()
        for server in system.l1_servers:
            assert server.registered_readers == {}

    def test_regeneration_bookkeeping_is_cleaned_up(self):
        system = build_system()
        system.write(b"v")
        system.run_until_idle()
        system.read()
        system.run_until_idle()
        for server in system.l1_servers:
            assert all(not helpers for helpers in server.helper_store.values())

    def test_l2_servers_never_store_a_lower_tag_than_acknowledged(self):
        # Consistency of internal reads w.r.t. internal writes (Lemma IV.4
        # precondition): after a completed write, L2 servers only move forward.
        system = build_system()
        first = system.write(b"one")
        system.run_until_idle()
        tags_after_first = {server.pid: server.stored_tag for server in system.l2_servers}
        system.write(b"two")
        system.run_until_idle()
        for server in system.l2_servers:
            assert server.stored_tag >= tags_after_first[server.pid]
            assert server.stored_tag >= first.tag

    def test_persistence_lemma_iv3_after_a_completed_write(self):
        # Lemma IV.3: in any set of f1 + k non-faulty L1 servers there is one
        # whose committed tag and list tag reach the completed write's tag.
        system = build_system()
        result = system.write(b"persist me")
        quorum = system.config.l1_quorum
        servers = system.l1_servers[:quorum]
        assert any(
            server.committed_tag >= result.tag and server.max_list_tag() >= result.tag
            for server in servers
        )


#: An L1 server's per-tag bookkeeping: commitCounter, the writer-ack flag,
#: the writer's operation id and writeCounter.
PER_TAG = ("commit_counter", "_acked_tags", "_tag_op_ids", "write_counter")


class TestRetainedState:
    def test_a_drained_run_keeps_only_the_list(self):
        system = build_system()
        writes = [system.invoke_write(bytes([index + 1]) * 4, writer=index % 2,
                                      at=index * 10.0) for index in range(6)]
        for index in range(4):
            system.invoke_read(reader=index % 2, at=index * 10.0 + 5.0)
        system.run_until_idle()
        tags = {system.results[op_id].tag for op_id in writes}
        assert len(tags) == 6
        for server in system.l1_servers:
            assert server.broadcaster._copies == {}
            assert {name: len(getattr(server, name)) for name in PER_TAG} == \
                dict.fromkeys(PER_TAG, 0)
            assert tags <= set(server.list_storage)

    def test_a_writer_crash_mid_put_data_leaves_only_its_tag(self):
        system = build_system()
        system.write(b"before")
        writer = system.writers[0]
        send = writer.send
        put_datas = []

        def crash_after_two_put_datas(destination, message):
            send(destination, message)
            if isinstance(message, msg.PutData):
                put_datas.append(message.tag)
                if len(put_datas) == 2:
                    system.network.crash(writer.pid)

        writer.send = crash_after_two_put_datas
        system.invoke_write(b"torn", writer=0)
        system.run_until_idle()
        torn = put_datas[0]
        # Two of n1 = 5 COMMIT-TAGs exist: the count stays short of n1, and
        # of the quorum, so the tag is never acked; its offload completes.
        for server in system.l1_servers:
            assert server.broadcaster._copies == {}
            assert server.commit_counter == {torn: 2}
            assert set(server._tag_op_ids) == {torn}
            assert not server._acked_tags and not server.write_counter
            assert server.committed_tag == torn


@dataclass
class UrgentPutData(msg.PutData):
    """A protocol message subclass: must be handled like its base."""

    priority: int = 0


class TestDispatch:
    def test_unknown_messages_are_ignored(self):
        system = build_system()
        server = system.l1_servers[0]
        server.on_message("nobody", Message(kind="garbage"))
        assert server.list_storage == {Tag.initial(): None}
        assert system.network.costs.messages_sent == 0

    def test_a_subclass_dispatches_like_its_base(self):
        system = build_system()
        server = system.l1_servers[0]
        tag = Tag(1, "writer-0")
        server.on_message("writer-0", UrgentPutData(tag=tag, value=b"v", op_id="w"))
        assert server.value_for(tag) == b"v"
        assert server.max_list_tag() == tag


_TAGS = st.builds(Tag, st.integers(min_value=1, max_value=5),
                  st.sampled_from(["writer-0", "writer-1"]))


@st.composite
def _protocol_messages(draw):
    """(sender, message): one step of Figure 2 that touches the list L."""
    kind = draw(st.sampled_from(["put-data", "commit", "put-tag", "ack", "get-tag"]))
    tag = draw(_TAGS)
    if kind == "put-data":
        return tag.writer_id, msg.PutData(tag=tag, value=bytes([tag.z]), op_id="w")
    if kind == "commit":
        sender = f"l1-{draw(st.integers(min_value=1, max_value=4))}"
        return sender, BroadcastEnvelope(
            broadcast_id=(sender, draw(st.integers(min_value=0, max_value=10**6))),
            inner=msg.CommitTag(tag=tag, op_id="w"))
    if kind == "put-tag":
        return "reader-0", msg.PutTag(tag=tag, op_id="r")
    if kind == "ack":
        return f"l2-{draw(st.integers(min_value=0, max_value=5))}", \
            msg.AckCodeElem(tag=tag, op_id="w")
    return "writer-0", msg.QueryTag(op_id="w")


class TestListBookkeeping:
    @given(st.lists(_protocol_messages(), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_running_maximum_and_valued_set_track_the_list(self, steps):
        system = build_system()
        server = system.l1_servers[0]
        for sender, message in steps:
            server.on_message(sender, message)
            valued = {t for t, v in server.list_storage.items() if v is not None}
            assert server.max_list_tag() == max(server.list_storage)
            assert set(server._valued_tags) == valued
            assert {tag for pid, tag in system.storage._l1_current
                    if pid == server.pid} == valued
