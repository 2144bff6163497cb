"""Integration tests of LDS liveness and atomicity under crash failures.

The paper (Theorem IV.8) guarantees that every operation of a non-faulty
client completes as long as at most f1 < n1/2 L1 servers and f2 < n2/3 L2
servers crash.  These tests exercise the failure budgets at their maximum,
with crashes before, during and between operations.
"""

import pytest

from repro.consistency.linearizability import check_atomicity
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.net.latency import BoundedLatencyModel, FixedLatencyModel


def build_system(config=None, latency=None, writers=2, readers=2):
    config = config or LDSConfig(n1=5, n2=6, f1=1, f2=1)
    return LDSSystem(config, num_writers=writers, num_readers=readers,
                     latency_model=latency or FixedLatencyModel())


class TestL1Failures:
    def test_operations_complete_with_max_l1_failures_before_start(self):
        system = build_system()
        for index in range(system.config.f1):
            system.crash_l1(index)
        system.write(b"despite L1 crashes")
        system.run_until_idle()
        assert system.read().value == b"despite L1 crashes"

    def test_operations_complete_when_l1_crashes_mid_write(self):
        system = build_system()
        system.crash_l1(0, at=1.5)  # between the two write phases
        op = system.invoke_write(b"crash during write", at=0.0)
        result = system.run_until_complete(op)
        assert result.value == b"crash during write"
        system.run_until_idle()
        assert system.read().value == b"crash during write"

    def test_read_completes_when_l1_crashes_mid_read(self):
        system = build_system()
        system.write(b"stable value")
        system.run_until_idle()
        crash_at = system.kernel.now + 1.5
        system.crash_l1(4, at=crash_at)
        result = system.read()
        assert result.value == b"stable value"

    def test_an_operation_past_the_f1_budget_names_it(self):
        system = build_system()
        for index in range(3):
            system.crash_l1(index)
        with pytest.raises(RuntimeError) as error:
            system.write(b"no quorum")
        assert str(error.value) == (
            "operation writer-0:write-1 did not complete (no pending events "
            "remain); 3 of 5 L1 servers crashed, f1 = 1")

    def test_inside_the_fault_model_the_message_is_unchanged(self):
        system = build_system()
        system.crash_l1(0)
        system.crash_l2(0)
        op = system.invoke_write(b"slow")
        with pytest.raises(RuntimeError) as error:
            system.run_until_complete(op, max_events=1)
        assert str(error.value) == (
            f"operation {op} did not complete within the event budget")

    def test_exceeding_f1_is_not_required_to_be_live(self):
        # Not a liveness assertion -- just documents that the budget matters:
        # with f1 crashes the quorum of f1 + k = n1 - f1 servers still exists.
        config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
        assert config.l1_quorum <= config.n1 - config.f1


class TestL2Failures:
    def test_write_completes_with_max_l2_failures(self):
        system = build_system()
        for index in range(system.config.f2):
            system.crash_l2(index)
        result = system.write(b"L2 failures tolerated")
        assert result.tag.z == 1
        system.run_until_idle()

    def test_read_regenerates_despite_l2_failures(self):
        system = build_system()
        system.write(b"regenerate with crashes")
        system.run_until_idle()
        for index in range(system.config.f2):
            system.crash_l2(index)
        assert system.read().value == b"regenerate with crashes"

    def test_backend_can_still_decode_after_f2_crashes(self):
        system = build_system()
        system.write(b"durable payload")
        system.run_until_idle()
        for index in range(system.config.f2):
            system.crash_l2(index)
        surviving = {
            server.index: server.stored_element.data
            for server in system.l2_servers
            if not server.crashed
        }
        assert system.code.decode_from_backend(surviving) == b"durable payload"


class TestCombinedFailures:
    def test_full_failure_budget_in_both_layers(self):
        config = LDSConfig(n1=7, n2=9, f1=2, f2=2)
        system = build_system(config=config)
        system.crash_l1(1)
        system.crash_l1(5)
        system.crash_l2(0)
        system.crash_l2(7)
        system.write(b"worst case budget")
        system.run_until_idle()
        assert system.read().value == b"worst case budget"

    def test_crashes_interleaved_with_operations_keep_atomicity(self):
        system = build_system(latency=BoundedLatencyModel(seed=5))
        system.invoke_write(b"first", writer=0, at=0.0)
        system.crash_l1(2, at=2.0)
        system.invoke_write(b"second", writer=1, at=50.0)
        system.crash_l2(3, at=55.0)
        system.invoke_read(reader=0, at=100.0)
        system.invoke_read(reader=1, at=150.0)
        system.run_until_idle()
        history = system.history()
        assert all(op.is_complete for op in history)
        assert check_atomicity(history) is None

    def test_staggered_crashes_during_a_read_heavy_phase(self):
        config = LDSConfig(n1=7, n2=9, f1=2, f2=2)
        system = build_system(config=config, latency=BoundedLatencyModel(seed=9))
        system.write(b"value zero")
        system.run_until_idle()
        base = system.kernel.now
        system.crash_l1(0, at=base + 5)
        system.crash_l2(1, at=base + 10)
        system.crash_l2(2, at=base + 15)
        ops = [system.invoke_read(reader=i % 2, at=base + 20 + 40 * i) for i in range(4)]
        system.run_until_idle()
        for op in ops:
            assert system.results[op].value == b"value zero"

    def test_client_crash_leaves_system_usable(self):
        system = build_system()
        system.invoke_write(b"orphaned write", writer=0)  # invoked immediately
        system.writers[0].crash()  # ... then the writer crashes mid-operation
        system.run_until_idle()
        # The crashed writer's operation may be incomplete, but other clients
        # must still make progress and see a consistent state.
        result = system.write(b"next value", writer=1)
        assert result.tag.z >= 1
        read = system.read()
        assert read.value in {b"orphaned write", b"next value"}
        assert check_atomicity(system.history()) is None
