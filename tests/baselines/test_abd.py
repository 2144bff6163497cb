"""Tests for the ABD replicated atomic register baseline."""

import pytest

from repro.baselines.abd import ABDSystem
from repro.consistency.linearizability import check_atomicity
from repro.net.latency import BoundedLatencyModel, FixedLatencyModel


def build(n=5, **kwargs):
    return ABDSystem(n=n, latency_model=kwargs.pop("latency_model", FixedLatencyModel()),
                     num_writers=kwargs.pop("num_writers", 2),
                     num_readers=kwargs.pop("num_readers", 2), **kwargs)


class TestBasics:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ABDSystem(n=0)
        with pytest.raises(ValueError):
            ABDSystem(n=4, f=2)

    def test_read_initial_value(self):
        system = build()
        assert system.read().value == b"\x00"

    def test_write_then_read(self):
        system = build()
        system.write(b"replicated value")
        assert system.read().value == b"replicated value"

    def test_sequential_writes_overwrite(self):
        system = build()
        for index in range(3):
            system.write(f"v{index}".encode())
        assert system.read().value == b"v2"

    def test_two_writers_get_distinct_increasing_tags(self):
        system = build()
        first = system.write(b"a", writer=0)
        second = system.write(b"b", writer=1)
        assert second.tag > first.tag

    def test_history_is_atomic(self):
        system = build(latency_model=BoundedLatencyModel(seed=3))
        system.invoke_write(b"x", writer=0, at=0.0)
        system.invoke_write(b"y", writer=1, at=0.5)
        system.invoke_read(reader=0, at=1.0)
        system.invoke_read(reader=1, at=30.0)
        system.run_until_idle()
        history = system.history().complete()
        assert check_atomicity(history) is None


class TestFaultTolerance:
    def test_operations_survive_f_crashes(self):
        system = build(n=5)
        system.crash_server(0)
        system.crash_server(3)
        system.write(b"still works")
        assert system.read().value == b"still works"

    def test_crash_mid_operation(self):
        system = build(n=5)
        system.crash_server(1, at=1.5)
        result = system.write(b"concurrent crash")
        assert result.kind == "write"
        assert system.read().value == b"concurrent crash"

    def test_an_operation_past_the_f_budget_names_it(self):
        system = build(n=5, f=2)
        for index in range(3):
            system.crash_server(index)
        with pytest.raises(RuntimeError) as error:
            system.write(b"no quorum")
        assert str(error.value) == (
            "operation writer-0:write-1 did not complete (no pending events "
            "remain); 3 of 5 servers crashed, f = 2")


class TestCosts:
    def test_write_cost_is_n(self):
        system = build(n=5)
        result = system.write(b"value")
        assert system.operation_cost(result.op_id) == pytest.approx(5.0)

    def test_read_cost_is_up_to_2n(self):
        system = build(n=5)
        system.write(b"value")
        result = system.read()
        cost = system.operation_cost(result.op_id)
        assert 5.0 <= cost <= 10.0 + 1e-9

    def test_storage_cost_is_n(self):
        system = build(n=7)
        system.write(b"value")
        assert system.storage_cost == pytest.approx(7.0)

    def test_costs_grow_linearly_with_n(self):
        small = build(n=4)
        large = build(n=8)
        cost_small = small.operation_cost(small.write(b"v").op_id)
        cost_large = large.operation_cost(large.write(b"v").op_id)
        assert cost_large == pytest.approx(2 * cost_small)
