"""Unit tests for the process base class and message envelope."""

from dataclasses import dataclass, fields

import pytest

from repro.net.latency import CLIENT, FixedLatencyModel, L1
from repro.net.messages import Message
from repro.net.network import Network
from repro.net.process import Process


class Recorder(Process):
    def __init__(self, pid, link_class=L1):
        super().__init__(pid, link_class)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


class TestMessage:
    def test_kind_defaults_to_class_name(self):
        assert Message().kind == "Message"

    def test_explicit_kind_preserved(self):
        assert Message(kind="PING").kind == "PING"

    def test_describe_mentions_size_and_operation(self):
        text = Message(kind="DATA", data_size=0.5, op_id="op-1").describe()
        assert "DATA" in text and "op-1" in text

    def test_a_subclass_defaults_to_its_own_name(self):
        @dataclass
        class Ping(Message):
            sequence: int = 0

        @dataclass
        class LatePing(Ping):
            pass

        assert (Ping().kind, LatePing().kind) == ("Ping", "LatePing")
        assert Ping(kind="PONG").kind == "PONG"
        assert [f.name for f in fields(LatePing)] == [
            "kind", "data_size", "op_id", "sequence"]


class TestProcess:
    def test_unattached_process_has_no_network(self):
        process = Recorder("lonely")
        with pytest.raises(RuntimeError):
            _ = process.network

    def test_send_and_receive_via_network(self):
        network = Network(latency_model=FixedLatencyModel())
        a, b = Recorder("a"), Recorder("b", link_class=CLIENT)
        network.register_all([a, b])
        a.send("b", Message(kind="hello"))
        network.kernel.run_until_idle()
        assert [message.kind for _, message in b.received] == ["hello"]

    def test_crashed_process_send_is_a_noop(self):
        network = Network(latency_model=FixedLatencyModel())
        a, b = Recorder("a"), Recorder("b")
        network.register_all([a, b])
        a.crash()
        a.send("b", Message())
        network.kernel.run_until_idle()
        assert b.received == []

    def test_crash_records_time_and_is_idempotent(self):
        network = Network(latency_model=FixedLatencyModel())
        a = Recorder("a")
        network.register(a)
        a.crash()
        first_time = a.crash_time
        a.crash()
        assert a.crashed and a.crash_time == first_time

    def test_schedule_skips_callback_after_crash(self):
        network = Network(latency_model=FixedLatencyModel())
        a = Recorder("a")
        network.register(a)
        fired = []
        a.schedule(5.0, lambda: fired.append("ran"))
        a.crash()
        network.kernel.run_until_idle()
        assert fired == []

    def test_repr_shows_status(self):
        process = Recorder("p")
        assert "alive" in repr(process)
        process.crashed = True
        assert "crashed" in repr(process)

    def test_on_start_hook_called_by_network(self):
        class Starter(Recorder):
            started = False

            def on_start(self):
                self.started = True

        network = Network(latency_model=FixedLatencyModel())
        starter = Starter("s")
        network.register(starter)
        network.start()
        assert starter.started
