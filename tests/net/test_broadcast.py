"""Unit tests for the metadata broadcast primitive of Section III."""

import pytest

from repro.net.broadcast import BroadcastEnvelope, BroadcastPrimitive
from repro.net.latency import FixedLatencyModel, L1
from repro.net.messages import Message
from repro.net.network import Network
from repro.net.process import Process


class BroadcastServer(Process):
    """Minimal server that consumes broadcast payloads into a list."""

    def __init__(self, pid, group, relay_set):
        super().__init__(pid, link_class=L1)
        self.group = group
        self.relay_set = relay_set
        self.consumed = []
        self.broadcaster = None

    def attach(self, network):
        super().attach(network)
        self.broadcaster = BroadcastPrimitive(self, self.group, self.relay_set)

    def on_message(self, sender, message):
        if isinstance(message, BroadcastEnvelope):
            inner = self.broadcaster.handle(message)
            if inner is not None:
                self.consumed.append(inner.kind)


def build_group(n, relay_count):
    group = [f"s{i}" for i in range(n)]
    relay_set = group[:relay_count]
    network = Network(latency_model=FixedLatencyModel(tau0=1, tau1=1, tau2=1))
    servers = [BroadcastServer(pid, group, relay_set) for pid in group]
    network.register_all(servers)
    return network, servers


class TestBroadcastPrimitive:
    def test_all_servers_consume_exactly_once(self):
        network, servers = build_group(n=6, relay_count=3)
        servers[4].broadcaster.broadcast(Message(kind="commit"))
        network.kernel.run_until_idle()
        assert all(server.consumed == ["commit"] for server in servers)

    def test_initiator_also_consumes_its_own_broadcast(self):
        network, servers = build_group(n=5, relay_count=2)
        servers[0].broadcaster.broadcast(Message(kind="m"))
        network.kernel.run_until_idle()
        assert servers[0].consumed == ["m"]

    def test_consumed_if_one_relay_survives(self):
        # Crash all relays but one immediately after the broadcast is initiated:
        # the surviving relay must still fan the message out to everyone alive.
        network, servers = build_group(n=6, relay_count=3)
        servers[5].broadcaster.broadcast(Message(kind="commit"))
        network.crash("s0")
        network.crash("s1")
        network.kernel.run_until_idle()
        alive = [server for server in servers if not server.crashed]
        assert all(server.consumed == ["commit"] for server in alive)

    def test_a_drained_group_keeps_no_copy_count(self):
        network, servers = build_group(n=6, relay_count=3)
        for index, server in enumerate(servers):
            server.broadcaster.broadcast(Message(kind=f"m{index}"))
        network.kernel.run_until_idle()
        for server in servers:
            assert sorted(server.consumed) == [f"m{i}" for i in range(6)]
            assert server.broadcaster._copies == {}

    def test_a_relay_crash_leaves_only_the_broadcasts_in_flight(self):
        network, servers = build_group(n=6, relay_count=3)
        servers[4].broadcaster.broadcast(Message(kind="done"))
        network.kernel.run_until_idle()
        in_flight = {servers[5].broadcaster.broadcast(Message(kind="b")),
                     servers[3].broadcaster.broadcast(Message(kind="c"))}
        network.crash("s0")
        network.kernel.run_until_idle()
        for server in servers[1:]:
            assert sorted(server.consumed) == ["b", "c", "done"]
            # Two of the three relays fanned each one out.
            assert server.broadcaster._copies == dict.fromkeys(in_flight, 2)

    def test_initiator_crash_after_send_does_not_block_delivery(self):
        network, servers = build_group(n=5, relay_count=2)
        servers[3].broadcaster.broadcast(Message(kind="commit"))
        network.crash("s3")
        network.kernel.run_until_idle()
        for server in servers:
            if server.pid != "s3":
                assert server.consumed == ["commit"]

    def test_multiple_broadcasts_are_distinguished(self):
        network, servers = build_group(n=4, relay_count=2)
        servers[0].broadcaster.broadcast(Message(kind="first"))
        servers[1].broadcaster.broadcast(Message(kind="second"))
        network.kernel.run_until_idle()
        for server in servers:
            assert sorted(server.consumed) == ["first", "second"]

    def test_broadcast_messages_carry_no_data_cost(self):
        network, servers = build_group(n=5, relay_count=2)
        servers[0].broadcaster.broadcast(Message(kind="commit", data_size=0.0))
        network.kernel.run_until_idle()
        assert network.costs.total == 0.0

    def test_relay_set_must_be_group_members(self):
        process = Process("x", link_class=L1)
        with pytest.raises(ValueError):
            BroadcastPrimitive(process, group=["a", "b"], relay_set=["z"])

    def test_empty_relay_set_rejected(self):
        process = Process("x", link_class=L1)
        with pytest.raises(ValueError):
            BroadcastPrimitive(process, group=["x"], relay_set=[])

    def test_envelope_without_inner_rejected(self):
        network, servers = build_group(n=3, relay_count=1)
        with pytest.raises(ValueError):
            servers[0].broadcaster.handle(BroadcastEnvelope(broadcast_id=("x", 1)))
