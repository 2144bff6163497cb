"""Unit tests for the network (reliable channels, crashes, cost tracking)."""

import pytest

from repro.net.latency import CLIENT, FixedLatencyModel, L1
from repro.net.messages import Message
from repro.net.network import Network
from repro.net.process import Process


class Echo(Process):
    """Test process recording what it receives and optionally replying."""

    def __init__(self, pid, link_class=L1, reply=False):
        super().__init__(pid, link_class)
        self.received = []
        self.reply = reply

    def on_message(self, sender, message):
        self.received.append((sender, message, self.now))
        if self.reply:
            self.send(sender, Message(kind="reply", op_id=message.op_id))


def make_network(**kwargs):
    return Network(latency_model=FixedLatencyModel(tau0=1, tau1=2, tau2=10), **kwargs)


class TestMembership:
    def test_register_and_lookup(self):
        network = make_network()
        process = Echo("a")
        network.register(process)
        assert network.process("a") is process
        assert network.alive("a")

    def test_duplicate_pid_rejected(self):
        network = make_network()
        network.register(Echo("a"))
        with pytest.raises(ValueError):
            network.register(Echo("a"))

    def test_unknown_sender_or_destination(self):
        network = make_network()
        a = network.register(Echo("a"))
        with pytest.raises(RuntimeError):  # never registered: no channel
            Echo("ghost").send("a", Message())
        with pytest.raises(ValueError):
            network.send(a, "ghost", Message())


class TestDelivery:
    def test_message_delivered_after_link_latency(self):
        network = make_network()
        a, b = Echo("a"), Echo("b")
        network.register_all([a, b])
        network.send(a, "b", Message(kind="ping"))
        network.run_until_idle()
        assert len(b.received) == 1
        assert b.received[0][2] == pytest.approx(1.0)  # L1 <-> L1 link

    def test_client_server_latency_applied(self):
        network = make_network()
        client, server = Echo("c", link_class=CLIENT), Echo("s", reply=True)
        network.register_all([client, server])
        network.send(client, "s", Message(kind="request"))
        network.run_until_idle()
        assert server.received[0][2] == pytest.approx(2.0)
        assert client.received[0][2] == pytest.approx(4.0)  # round trip

    def test_reordering_is_possible_with_different_links(self):
        # A message over a slow link sent first can arrive after a later fast one.
        network = Network(latency_model=FixedLatencyModel(tau0=1, tau1=5, tau2=10))
        fast, slow, target = Echo("fast"), Echo("slow", link_class=CLIENT), Echo("t")
        network.register_all([fast, slow, target])
        network.send(slow, "t", Message(kind="first"))
        network.send(fast, "t", Message(kind="second"))
        network.run_until_idle()
        kinds = [message.kind for _, message, _ in target.received]
        assert kinds == ["second", "first"]


class TestCrashes:
    def test_crashed_destination_drops_message(self):
        network = make_network()
        a, b = Echo("a"), Echo("b")
        network.register_all([a, b])
        network.crash("b")
        network.send(a, "b", Message())
        network.run_until_idle()
        assert b.received == []
        assert network.dropped_to_crashed == 1

    def test_crashed_sender_cannot_send(self):
        network = make_network()
        a, b = Echo("a"), Echo("b")
        network.register_all([a, b])
        network.crash("a")
        a.send("b", Message())
        network.run_until_idle()
        assert b.received == []

    def test_message_in_flight_survives_sender_crash(self):
        # The paper's channel model: the sender may fail after placing the
        # message in the channel; delivery depends only on the destination.
        network = make_network()
        a, b = Echo("a"), Echo("b")
        network.register_all([a, b])
        network.send(a, "b", Message(kind="survives"))
        network.crash("a")
        network.run_until_idle()
        assert [m.kind for _, m, _ in b.received] == ["survives"]

    def test_a_process_swapped_out_under_its_pid_stays_crashed(self):
        # Repair installs a new process under a crashed one's pid: the old
        # object still sends nothing and is charged nothing, and a message
        # to the pid reaches the new object.
        network = make_network()
        a, b = Echo("a"), Echo("b")
        network.register_all([a, b])
        network.crash("a")
        replacement = Echo("a")
        network.processes["a"] = replacement
        replacement.attach(network)
        a.send("b", Message(kind="stale", data_size=1.0, op_id="old"))
        b.send("a", Message(kind="fresh"))
        network.run_until_idle()
        assert b.received == [] and a.received == []
        assert [m.kind for _, m, _ in replacement.received] == ["fresh"]
        assert (network.costs.messages_sent, network.costs.total) == (1, 0.0)
        assert network.costs.operation_cost("old") == 0.0
        assert network.dropped_to_crashed == 0

    def test_crash_mid_execution_stops_future_deliveries(self):
        network = make_network()
        a, b = Echo("a"), Echo("b")
        network.register_all([a, b])
        network.send(a, "b", Message(kind="early"))
        network.simulator.schedule(0.5, lambda: network.crash("b"))
        network.send(a, "b", Message(kind="late"))
        network.run_until_idle()
        assert b.received == []


class TestCostTracking:
    def test_cost_charged_at_send_time(self):
        network = make_network()
        a, b = Echo("a"), Echo("b")
        network.register_all([a, b])
        network.send(a, "b", Message(kind="data", data_size=1.0, op_id="op1"))
        network.send(a, "b", Message(kind="meta", data_size=0.0, op_id="op1"))
        assert network.costs.total == pytest.approx(1.0)
        assert network.costs.messages_sent == 2
        assert network.costs.operation_cost("op1") == pytest.approx(1.0)

    def test_costs_grouped_by_kind(self):
        network = make_network()
        a, b = Echo("a"), Echo("b")
        network.register_all([a, b])
        for _ in range(3):
            network.send(a, "b", Message(kind="coded", data_size=0.25))
        assert network.costs.messages_by_kind["coded"] == 3

    def test_merge_operations(self):
        network = make_network()
        a, b = Echo("a"), Echo("b")
        network.register_all([a, b])
        network.send(a, "b", Message(data_size=1.0, op_id="write"))
        network.send(a, "b", Message(data_size=0.5, op_id="internal-1"))
        network.send(a, "b", Message(data_size=0.5, op_id="internal-2"))
        total = network.costs.merge_operations("write", ["internal-1", "internal-2"])
        assert total == pytest.approx(2.0)

    def test_unknown_operation_costs_zero(self):
        assert make_network().costs.operation_cost("nope") == 0.0
