"""The driving API LDS, ABD and CAS share through ``RegisterSystem``, and
the client lifecycle their writers and readers share through ``Client``."""

import pytest

from repro.baselines.abd import ABDSystem
from repro.baselines.cas import (
    CasPreWrite, CasReadRequest, CasReadResponse, CASServer, CASSystem,
)
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem, RegisterSystem
from repro.core.tags import Tag
from repro.net.latency import CLIENT, FixedLatencyModel
from repro.net.network import Network
from repro.net.process import Process

BUILDERS = {
    "lds": lambda: LDSSystem(LDSConfig.symmetric(n=5, f=1), latency_model=FixedLatencyModel()),
    "abd": lambda: ABDSystem(n=5, latency_model=FixedLatencyModel()),
    "cas": lambda: CASSystem(n=6, k=3, latency_model=FixedLatencyModel()),
}


@pytest.fixture(params=sorted(BUILDERS))
def system(request) -> RegisterSystem:
    return BUILDERS[request.param]()


def test_every_register_is_a_register_system(system):
    assert isinstance(system, RegisterSystem)
    assert system.write(b"v").kind == "write"
    assert system.read().value == b"v"


def test_a_crashed_writer_refuses_to_start_and_records_nothing(system):
    system.network.crash("writer-0")
    with pytest.raises(RuntimeError, match="writer writer-0 has crashed"):
        system.invoke_write(b"never")
    assert len(system.history()) == 0
    assert system.recorder.incomplete_count == 0


def test_a_crashed_reader_refuses_to_start_and_records_nothing(system):
    system.network.crash("reader-0")
    with pytest.raises(RuntimeError, match="reader reader-0 has crashed"):
        system.invoke_read()
    assert len(system.history()) == 0


def test_unknown_client_names_raise_key_error(system):
    with pytest.raises(KeyError):
        system.invoke_write(b"x", writer="writer-9")
    with pytest.raises(KeyError):
        system.invoke_read(reader="nobody")


def test_clients_are_addressed_by_index_or_name(system):
    first = system.write(b"by name", writer="writer-0")
    assert first.client_id == "writer-0"
    assert system.read(reader=0).value == b"by name"


def test_a_busy_client_refuses_a_second_operation(system):
    system.invoke_write(b"first")
    with pytest.raises(RuntimeError, match="already has an operation in flight"):
        system.invoke_write(b"second")


def test_crash_at_a_virtual_time_is_scheduled(system):
    pid = next(iter(system.network.processes))  # a server
    crash = getattr(system, "crash_l1", None) or system.crash_server
    crash(0, at=3.0)
    assert not system.network.processes[pid].crashed
    system.run(until=3.0)
    assert system.network.processes[pid].crashed


def test_completion_hooks_see_every_result(system):
    seen = []
    system.completion_hooks.append(seen.append)
    write = system.write(b"hooked")
    read = system.read()
    assert seen == [write, read]


class _Probe(Process):
    def __init__(self) -> None:
        super().__init__("probe", link_class=CLIENT)
        self.received = []

    def on_message(self, sender, message) -> None:
        self.received.append(message)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_a_cas_server_sizes_a_read_response_one_over_k(k):
    network = Network(latency_model=FixedLatencyModel())
    server, probe = CASServer("cas-0", 0, k), _Probe()
    network.register_all([server, probe])
    tag = Tag(1, "writer-0")
    probe.send("cas-0", CasPreWrite(tag=tag, coded_element=b"\x01\x02", op_id="w"))
    probe.send("cas-0", CasReadRequest(tag=tag, op_id="r"))
    probe.send("cas-0", CasReadRequest(tag=Tag(7, "writer-0"), op_id="missing"))
    network.kernel.run_until_idle()
    responses = {message.op_id: message for message in probe.received
                 if isinstance(message, CasReadResponse)}
    assert responses["r"].has_element and responses["r"].data_size == 1.0 / k
    assert not responses["missing"].has_element and responses["missing"].data_size == 0.0
