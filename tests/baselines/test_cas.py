"""Tests for the single-layer coded atomic register (CAS) baseline."""

import pytest

from repro.baselines.cas import CASSystem
from repro.consistency.linearizability import check_atomicity
from repro.net.latency import BoundedLatencyModel, FixedLatencyModel


def build(n=6, k=3, **kwargs):
    return CASSystem(n=n, k=k, latency_model=kwargs.pop("latency_model", FixedLatencyModel()),
                     num_writers=kwargs.pop("num_writers", 2),
                     num_readers=kwargs.pop("num_readers", 2), **kwargs)


class TestBasics:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CASSystem(n=4, k=5)
        with pytest.raises(ValueError):
            CASSystem(n=4, k=0)

    def test_quorum_size(self):
        system = build(n=6, k=3)
        assert system.quorum == 5  # ceil((6 + 3) / 2)
        assert system.f == 1

    def test_read_initial_value(self):
        assert build().read().value == b"\x00"

    def test_write_then_read(self):
        system = build()
        system.write(b"coded single layer value")
        assert system.read().value == b"coded single layer value"

    def test_sequence_of_writes(self):
        system = build()
        for index in range(4):
            system.write(f"version-{index}".encode())
            assert system.read().value == f"version-{index}".encode()

    def test_two_writers(self):
        system = build()
        system.write(b"first", writer=0)
        system.write(b"second", writer=1)
        assert system.read().value == b"second"

    def test_history_is_atomic(self):
        system = build(latency_model=BoundedLatencyModel(seed=5))
        system.invoke_write(b"x", writer=0, at=0.0)
        system.invoke_read(reader=0, at=1.0)
        system.invoke_write(b"y", writer=1, at=40.0)
        system.invoke_read(reader=1, at=80.0)
        system.run_until_idle()
        history = system.history().complete()
        assert check_atomicity(history) is None


class TestFaultToleranceAndStorage:
    def test_tolerates_declared_failures(self):
        system = build(n=7, k=3)  # quorum 5, tolerates 2 crashes
        system.crash_server(0)
        system.crash_server(6)
        system.write(b"resilient")
        assert system.read().value == b"resilient"

    def test_an_operation_past_the_f_budget_names_it(self):
        system = build(n=6, k=2)  # quorum 4, tolerates 2 crashes
        for index in range(3):
            system.crash_server(index)
        with pytest.raises(RuntimeError) as error:
            system.write(b"no quorum")
        assert str(error.value) == (
            "operation writer-0:write-1 did not complete (no pending events "
            "remain); 3 of 6 servers crashed, f = 2")

    def test_storage_cost_is_fraction_of_replication(self):
        system = build(n=6, k=3)
        system.write(b"space efficient")
        # One finalized version: 6 elements of size 1/3 each = 2.
        assert system.storage_cost == pytest.approx(2.0)
        assert system.storage_cost < 6.0  # replication would cost n

    def test_garbage_collection_bounds_storage(self):
        system = build(n=6, k=3, gc_depth=2)
        for index in range(5):
            system.write(bytes([index + 1]) * 3)
        system.run_until_idle()
        assert system.storage_cost <= 2 * 6 / 3 + 1e-9

    def test_write_cost_scales_with_n_over_k(self):
        system = build(n=6, k=3)
        result = system.write(b"value")
        # pre-write sends n elements of size 1/k.
        assert system.operation_cost(result.op_id) == pytest.approx(6 / 3)

    def test_read_cost_smaller_than_abd(self):
        system = build(n=6, k=3)
        system.write(b"value")
        read_cost = system.operation_cost(system.read().op_id)
        assert read_cost <= 6 / 3 + 1e-9  # at most n coded elements of size 1/k
