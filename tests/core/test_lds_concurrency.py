"""Integration tests of the LDS protocol under concurrency."""

import random

import pytest

from repro.consistency.linearizability import check_atomicity
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.net.latency import BoundedLatencyModel, ExponentialLatencyModel, FixedLatencyModel
from repro.workloads.generator import ScheduledOperation, Workload, WorkloadGenerator
from repro.workloads.runner import WorkloadRunner


def build_system(num_writers=3, num_readers=3, latency=None, config=None):
    config = config or LDSConfig(n1=5, n2=6, f1=1, f2=1)
    return LDSSystem(config, num_writers=num_writers, num_readers=num_readers,
                     latency_model=latency or FixedLatencyModel())


class TestConcurrentWrites:
    def test_concurrent_writes_from_different_writers_all_complete(self):
        system = build_system()
        ops = [system.invoke_write(f"value-{i}".encode(), writer=i, at=0.0) for i in range(3)]
        system.run_until_idle()
        assert all(op in system.results for op in ops)

    def test_concurrent_writes_get_distinct_tags(self):
        system = build_system()
        ops = [system.invoke_write(bytes([i]), writer=i, at=0.0) for i in range(3)]
        system.run_until_idle()
        tags = {system.results[op].tag for op in ops}
        assert len(tags) == 3

    def test_read_after_concurrent_writes_returns_one_of_them(self):
        system = build_system()
        for i in range(3):
            system.invoke_write(f"value-{i}".encode(), writer=i, at=0.0)
        system.run_until_idle()
        result = system.read()
        assert result.value in {b"value-0", b"value-1", b"value-2"}

    def test_history_of_concurrent_writes_is_atomic(self):
        system = build_system(latency=BoundedLatencyModel(seed=3))
        for i in range(3):
            system.invoke_write(f"value-{i}".encode(), writer=i, at=float(i) * 0.5)
        system.invoke_read(reader=0, at=1.0)
        system.invoke_read(reader=1, at=2.0)
        system.run_until_idle()
        history = system.history().complete()
        assert check_atomicity(history) is None


class TestReaderWriterConcurrency:
    def test_read_concurrent_with_write_returns_old_or_new(self):
        system = build_system()
        system.write(b"old")
        system.run_until_idle()
        system.invoke_write(b"new", writer=1, at=100.0)
        read_op = system.invoke_read(reader=0, at=100.5)
        system.run_until_idle()
        assert system.results[read_op].value in {b"old", b"new"}

    def test_read_is_served_from_l1_during_concurrency(self):
        # A read overlapping a write should be served a full value from the
        # temporary storage (cost n1 * 1), not require decoding coded data.
        system = build_system()
        system.invoke_write(b"concurrent value", writer=0, at=0.0)
        read_op = system.invoke_read(reader=0, at=1.0)
        system.run_until_idle()
        assert system.results[read_op].value in {system.config.initial_value, b"concurrent value"}

    def test_reads_concurrent_with_many_writes_remain_atomic(self):
        system = build_system(num_writers=3, num_readers=3,
                              latency=BoundedLatencyModel(seed=17))
        ops = []
        for round_index in range(3):
            base = round_index * 40.0
            for writer in range(3):
                ops.append(system.invoke_write(
                    f"r{round_index}-w{writer}".encode(), writer=writer, at=base + writer * 0.3
                ))
            for reader in range(3):
                ops.append(system.invoke_read(reader=reader, at=base + 1.0 + reader * 0.2))
        system.run_until_idle()
        assert all(op in system.results for op in ops)
        history = system.history().complete()
        assert check_atomicity(history) is None

    def test_no_new_old_inversion_between_sequential_readers(self):
        # Two reads that do not overlap must not observe values in the wrong
        # order even when a write is concurrent with both (atomicity).
        system = build_system(latency=BoundedLatencyModel(seed=23))
        system.write(b"old")
        system.run_until_idle()
        system.invoke_write(b"new", writer=1, at=200.0)
        first_read = system.invoke_read(reader=0, at=200.2)
        system.run_until_idle()
        second_read = system.invoke_read(reader=1)
        system.run_until_idle()
        first_value = system.results[first_read].value
        second_value = system.results[second_read].value
        if first_value == b"new":
            assert second_value == b"new"


class TestAsynchronousExecutions:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_mixed_workloads_are_atomic(self, seed):
        system = build_system(num_writers=2, num_readers=2,
                              latency=BoundedLatencyModel(seed=seed))
        generator = WorkloadGenerator(seed=seed, client_spacing=60.0)
        workload = generator.mixed_random(num_operations=12, write_fraction=0.5,
                                          duration=200.0, num_writers=2, num_readers=2)
        report = WorkloadRunner(system).run(workload)
        assert report.incomplete_operations == 0
        assert report.is_atomic

    @pytest.mark.parametrize("seed", [11, 12])
    def test_unbounded_latency_executions_are_atomic(self, seed):
        # Exponential delays model pure asynchrony (no latency bound at all).
        system = build_system(num_writers=2, num_readers=2,
                              latency=ExponentialLatencyModel(tau0=1, tau1=1, tau2=5, seed=seed))
        generator = WorkloadGenerator(seed=seed, client_spacing=150.0)
        workload = generator.mixed_random(num_operations=10, write_fraction=0.4,
                                          duration=400.0, num_writers=2, num_readers=2)
        report = WorkloadRunner(system).run(workload)
        assert report.incomplete_operations == 0
        assert report.is_atomic

    def test_burst_workload_all_operations_complete(self):
        system = build_system(num_writers=4, num_readers=4,
                              latency=BoundedLatencyModel(seed=31),
                              config=LDSConfig(n1=5, n2=6, f1=1, f2=1))
        # Four writes and four reads, all invoked within one time unit.
        rng = random.Random(31)
        writes = [ScheduledOperation(kind="write", at=rng.uniform(0, 1.0), client_index=i,
                                     value=bytes([i + 1]) * 8) for i in range(4)]
        reads = [ScheduledOperation(kind="read", at=rng.uniform(0, 1.0), client_index=i)
                 for i in range(4)]
        report = WorkloadRunner(system).run(Workload(writes + reads))
        assert report.incomplete_operations == 0
        assert report.is_atomic
        assert report.read_latency.count == 4
        assert report.write_latency.count == 4
