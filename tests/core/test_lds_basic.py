"""Integration tests of the LDS protocol: sequential behaviour."""

import pytest

from repro.consistency.linearizability import check_atomicity
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.core.tags import Tag
from repro.net.latency import BoundedLatencyModel, FixedLatencyModel


class TestSingleOperations:
    def test_read_before_any_write_returns_initial_value(self, small_config, fixed_latency):
        system = LDSSystem(small_config, latency_model=fixed_latency)
        result = system.read()
        assert result.value == small_config.initial_value
        assert result.tag == Tag.initial()

    def test_write_then_read_returns_written_value(self, small_system):
        written = b"hello layered storage"
        write_result = small_system.write(written)
        read_result = small_system.read()
        assert read_result.value == written
        assert read_result.tag == write_result.tag

    def test_write_tag_carries_the_writer_id(self, small_system):
        result = small_system.write(b"v", writer=1)
        assert result.tag.writer_id == "writer-1"
        assert result.tag.z == 1

    def test_sequential_writes_get_increasing_tags(self, small_system):
        tags = [small_system.write(bytes([i])).tag for i in range(5)]
        assert tags == sorted(tags)
        assert len(set(tags)) == 5

    def test_read_after_quiescence_uses_regeneration(self, small_config, fixed_latency):
        # After the write's value has been offloaded to L2 and garbage
        # collected from L1, a later read must regenerate coded data.
        system = LDSSystem(small_config, latency_model=fixed_latency)
        written = b"persisted then regenerated"
        system.write(written)
        system.run_until_idle()
        assert system.storage.l1_cost == 0.0  # temporary copies gone
        result = system.read()
        assert result.value == written

    def test_alternating_writes_and_reads(self, small_system):
        for index in range(4):
            value = f"value-{index}".encode()
            small_system.write(value, writer=index % 2)
            small_system.run_until_idle()
            assert small_system.read(reader=index % 2).value == value

    def test_empty_value_roundtrip(self, small_system):
        small_system.write(b"")
        small_system.run_until_idle()
        assert small_system.read().value == b""

    def test_large_value_roundtrip(self, small_system):
        value = bytes(range(256)) * 8  # multiple stripes
        small_system.write(value)
        small_system.run_until_idle()
        assert small_system.read().value == value

    def test_two_writers_alternating(self, small_system):
        small_system.write(b"from writer 0", writer=0)
        small_system.write(b"from writer 1", writer=1)
        assert small_system.read().value == b"from writer 1"

    def test_different_readers_see_the_latest_value(self, small_system):
        small_system.write(b"shared state")
        assert small_system.read(reader=0).value == b"shared state"
        assert small_system.read(reader=1).value == b"shared state"


class TestWellFormedness:
    def test_writer_rejects_overlapping_operations(self, small_system):
        small_system.invoke_write(b"a", writer=0)
        with pytest.raises(RuntimeError):
            small_system.writers[0].write(b"b")

    def test_reader_rejects_overlapping_operations(self, small_system):
        small_system.invoke_read(reader=0)
        with pytest.raises(RuntimeError):
            small_system.readers[0].read()

    def test_history_is_well_formed(self, small_system):
        small_system.write(b"a")
        small_system.read()
        small_system.write(b"b", writer=1)
        assert small_system.history().is_well_formed()


class TestStateAfterOperations:
    def test_l2_servers_hold_the_latest_tag_after_quiescence(self, small_system):
        result = small_system.write(b"offloaded")
        small_system.run_until_idle()
        for server in small_system.l2_servers:
            assert server.stored_tag == result.tag

    def test_l2_storage_cost_is_constant(self, small_config, fixed_latency):
        system = LDSSystem(small_config, latency_model=fixed_latency)
        expected = float(small_config.n2) * float(system.code.costs.element_fraction)
        assert system.storage.l2_cost == pytest.approx(expected)
        system.write(b"one")
        system.run_until_idle()
        assert system.storage.l2_cost == pytest.approx(expected)

    def test_temporary_storage_is_cleared_after_write_settles(self, small_system):
        result = small_system.write(b"temporary")
        small_system.run_until_idle()
        assert small_system.storage.l1_cost == 0.0
        assert small_system.storage.temporary_clear_time(result.tag) is not None

    def test_committed_tags_advance_on_all_l1_servers(self, small_system):
        result = small_system.write(b"commit everywhere")
        small_system.run_until_idle()
        for server in small_system.l1_servers:
            assert server.committed_tag >= result.tag

    def test_operation_results_recorded(self, small_system):
        op_id = small_system.invoke_write(b"tracked")
        small_system.run_until_idle()
        assert op_id in small_system.results
        assert small_system.results[op_id].kind == "write"


class TestAtomicityOfSimpleExecutions:
    def test_sequential_history_passes_both_checkers(self, small_system):
        small_system.write(b"one")
        small_system.read()
        small_system.write(b"two", writer=1)
        small_system.read(reader=1)
        history = small_system.history().complete()
        assert check_atomicity(history) is None

    def test_randomised_latency_sequential_history_is_atomic(self, small_config):
        system = LDSSystem(small_config, num_writers=2, num_readers=2,
                           latency_model=BoundedLatencyModel(seed=11))
        for index in range(3):
            system.write(f"value-{index}".encode(), writer=index % 2)
            system.read(reader=index % 2)
        history = system.history().complete()
        assert check_atomicity(history) is None


class TestOtherConfigurations:
    @pytest.mark.parametrize("n1,n2,f1,f2", [(3, 4, 1, 1), (5, 9, 2, 2), (7, 7, 2, 2), (4, 7, 1, 2)])
    def test_write_read_roundtrip_across_configurations(self, n1, n2, f1, f2):
        config = LDSConfig(n1=n1, n2=n2, f1=f1, f2=f2)
        system = LDSSystem(config, latency_model=FixedLatencyModel())
        system.write(b"configuration sweep")
        system.run_until_idle()
        assert system.read().value == b"configuration sweep"

    def test_msr_operating_point_roundtrip(self):
        config = LDSConfig(n1=5, n2=6, f1=1, f2=1, operating_point="msr")
        system = LDSSystem(config, latency_model=FixedLatencyModel())
        system.write(b"msr backend")
        system.run_until_idle()
        assert system.read().value == b"msr backend"

    def test_custom_initial_value(self):
        config = LDSConfig(n1=5, n2=6, f1=1, f2=1, initial_value=b"genesis")
        system = LDSSystem(config, latency_model=FixedLatencyModel())
        assert system.read().value == b"genesis"
