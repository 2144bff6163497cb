"""End-to-end scenarios combining the whole stack.

These tests model the edge-computing situations that motivate the paper:
an edge cache serving a hot object, a bursty multi-writer sensor feed, and
a head-to-head comparison of LDS against the ABD and CAS baselines on an
identical workload.
"""

import pytest

from repro.baselines.abd import ABDSystem
from repro.baselines.cas import CASSystem
from repro.core.analysis import mbr_read_cost, mbr_write_cost
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.net.latency import BoundedLatencyModel, FixedLatencyModel
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.runner import WorkloadRunner


class TestEdgeCacheScenario:
    def test_hot_object_reads_avoid_the_backend_while_writes_are_fresh(self):
        # tau2 >> tau1: reads that overlap recent writes complete much faster
        # than reads that must reach back to L2.
        config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
        system = LDSSystem(config, num_writers=1, num_readers=3,
                           latency_model=FixedLatencyModel(tau0=1, tau1=1, tau2=30))
        system.invoke_write(b"popular object v1", writer=0, at=0.0)
        hot_reads = [system.invoke_read(reader=i, at=1.0 + i) for i in range(3)]
        system.run_until_idle()
        hot_durations = [system.results[op].duration for op in hot_reads]
        cold_read = system.read()  # long after quiescence: regenerate from L2
        assert max(hot_durations) < cold_read.duration
        assert all(system.results[op].value in {b"popular object v1", b"\x00"}
                   for op in hot_reads)

    def test_sensor_burst_scenario_stays_atomic_and_live(self):
        config = LDSConfig(n1=7, n2=9, f1=2, f2=2)
        system = LDSSystem(config, num_writers=4, num_readers=2,
                           latency_model=BoundedLatencyModel(seed=2))
        generator = WorkloadGenerator(seed=2, client_spacing=80.0)
        workload = generator.write_heavy_with_trailing_read(
            num_writes=8, num_writers=4, burst_window=30.0, read_at=10.0,
        )
        report = WorkloadRunner(system).run(workload)
        assert report.incomplete_operations == 0
        assert report.is_atomic


class TestCrossAlgorithmComparison:
    def build_workload(self, seed=9):
        return WorkloadGenerator(seed=seed, client_spacing=80.0).sequential(
            num_writes=3, num_reads=3, spacing=80.0
        )

    def test_all_three_algorithms_agree_on_values_and_atomicity(self):
        config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
        lds = LDSSystem(config, latency_model=FixedLatencyModel())
        abd = ABDSystem(n=5, latency_model=FixedLatencyModel())
        cas = CASSystem(n=6, k=3, latency_model=FixedLatencyModel())
        for system in (lds, abd, cas):
            report = WorkloadRunner(system).run(self.build_workload())
            assert report.incomplete_operations == 0
            assert report.is_atomic
            final_reads = [op.value for op in report.history.reads()]
            assert final_reads[-1] is not None

    def test_lds_backend_storage_beats_replication_and_write_cost_shape_holds(self):
        config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
        lds = LDSSystem(config, latency_model=FixedLatencyModel())
        abd = ABDSystem(n=6, latency_model=FixedLatencyModel())
        lds_write = lds.write(b"compare me")
        lds.run_until_idle()
        abd_write = abd.write(b"compare me")

        # Permanent storage: coded back-end vs replication (Figure 6 point).
        assert lds.storage.l2_cost < abd.storage_cost
        # Write cost: both are Theta(n); the measured values match the models.
        assert lds.operation_cost(lds_write.op_id) == pytest.approx(
            mbr_write_cost(config.n1, config.n2, config.k, config.d), rel=1e-9
        )
        assert abd.operation_cost(abd_write.op_id) == pytest.approx(6.0)

    def test_lds_quiescent_read_cheaper_than_abd_read_for_large_systems(self):
        config = LDSConfig(n1=11, n2=11, f1=2, f2=2)
        lds = LDSSystem(config, latency_model=FixedLatencyModel())
        lds.write(b"x")
        lds.run_until_idle()
        lds_read_cost = lds.operation_cost(lds.read().op_id)
        abd = ABDSystem(n=11, latency_model=FixedLatencyModel())
        abd.write(b"x")
        abd_read_cost = abd.operation_cost(abd.read().op_id)
        assert lds_read_cost == pytest.approx(
            mbr_read_cost(config.n1, config.n2, config.k, config.d, delta=0), rel=1e-9
        )
        assert lds_read_cost < abd_read_cost
