"""Tests for the L2 repair extension (the paper's future-work item)."""

import pytest

from repro.codes.base import RepairError
from repro.core import messages as msg
from repro.core.config import LDSConfig
from repro.core.repair import BackendRepairCoordinator
from repro.core.system import LDSSystem
from repro.core.tags import Tag
from repro.net.latency import FixedLatencyModel


def build_system(n1=5, n2=6, f1=1, f2=1):
    config = LDSConfig(n1=n1, n2=n2, f1=f1, f2=f2)
    return LDSSystem(config, num_writers=2, num_readers=2,
                     latency_model=FixedLatencyModel())


class TestRepairBasics:
    def test_repair_restores_exact_element_and_tag(self):
        system = build_system()
        result = system.write(b"value to survive repair")
        system.run_until_idle()
        original = system.l2_servers[2].stored_element.data
        system.crash_l2(2)
        report = BackendRepairCoordinator(system).repair(2)
        repaired_server = system.l2_servers[2]
        assert not repaired_server.crashed
        assert repaired_server.stored_tag == result.tag == report.restored_tag
        assert repaired_server.stored_element.data == original

    def test_repair_download_is_d_helper_fractions(self):
        system = build_system()
        system.write(b"x")
        system.run_until_idle()
        system.crash_l2(0)
        report = BackendRepairCoordinator(system).repair(0)
        expected = system.config.d * float(system.code.costs.helper_fraction)
        assert report.download_fraction == pytest.approx(expected)
        assert len(report.helpers_used) == system.config.d

    def test_repaired_server_participates_in_future_reads(self):
        system = build_system()
        system.write(b"before crash")
        system.run_until_idle()
        system.crash_l2(3)
        BackendRepairCoordinator(system).repair(3)
        system.write(b"after repair", writer=1)
        system.run_until_idle()
        assert system.read().value == b"after repair"
        assert system.l2_servers[3].stored_tag.z == 2

    def test_replacement_starts_with_an_empty_memo_and_helps_from_the_repaired_element(self):
        system = build_system()
        system.write(b"before the crash")
        system.run_until_idle()
        system.read()  # every L2 server, 2 included, now holds helper data of this element
        assert system.l2_servers[2]._helpers is not None
        system.crash_l2(2)
        result = system.write(b"written while server 2 is down", writer=1)
        system.run_until_idle()
        BackendRepairCoordinator(system).repair(2)
        replacement = system.l2_servers[2]
        assert replacement._helpers is None
        sent = []
        replacement.send = lambda destination, message: sent.append(message)
        for l1_index in range(system.config.n1):
            replacement.on_message(system.config.l1_pid(l1_index),
                                   msg.QueryCodeElem(l1_index=l1_index))
        element = system.code.code.encode(b"written while server 2 is down")[
            system.code.l2_symbol_index(2)]
        assert [(reply.tag, reply.helper_data) for reply in sent] == [
            (result.tag, system.code.code.helper_data(element.index, element.data, l1_index))
            for l1_index in range(system.config.n1)]

    def test_repair_of_initial_state_server(self):
        system = build_system()
        system.crash_l2(1)
        report = BackendRepairCoordinator(system).repair(1)
        assert report.restored_tag == Tag.initial()
        assert system.read().value == system.config.initial_value

    def test_repair_all_restores_every_crashed_server(self):
        system = build_system(n1=5, n2=9, f1=1, f2=2)
        system.write(b"durable")
        system.run_until_idle()
        system.crash_l2(0)
        system.crash_l2(5)
        reports = BackendRepairCoordinator(system).repair_all()
        assert sorted(report.repaired_index for report in reports) == [0, 5]
        assert all(not server.crashed for server in system.l2_servers)
        assert system.read().value == b"durable"


class TestRepairValidation:
    def test_cannot_repair_an_alive_server(self):
        system = build_system()
        with pytest.raises(RepairError):
            BackendRepairCoordinator(system).repair(0)

    def test_invalid_index_rejected(self):
        system = build_system()
        with pytest.raises(RepairError):
            BackendRepairCoordinator(system).repair(42)

    def test_repair_needs_d_survivors(self):
        system = build_system()
        for index in range(3):  # crash more than the protocol budget
            system.crash_l2(index)
        with pytest.raises(RepairError):
            BackendRepairCoordinator(system).repair(0)

    def test_crashed_indices_listing(self):
        system = build_system()
        assert BackendRepairCoordinator(system).crashed_l2_indices() == []
        system.crash_l2(4)
        assert BackendRepairCoordinator(system).crashed_l2_indices() == [4]

    def test_completed_writes_survive_f2_crashes_plus_repair(self):
        # The guarantee the module docstring states: a write acknowledged by
        # the L2 quorum is never lost by crashing f2 servers and repairing them.
        system = build_system(n1=5, n2=9, f1=1, f2=2)
        result = system.write(b"never lost")
        system.run_until_idle()
        system.crash_l2(1)
        system.crash_l2(7)
        coordinator = BackendRepairCoordinator(system)
        for report in coordinator.repair_all():
            assert report.restored_tag >= result.tag
        assert system.read().value == b"never lost"
