"""Tests for metric summaries and the workload runner."""

import pytest

from repro.baselines.abd import ABDSystem
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.net.latency import FixedLatencyModel
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.metrics import LatencySummary, percentile, summarize_latencies
from repro.workloads.runner import WorkloadRunner


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(values, 0.5) == 5
        assert percentile(values, 0.95) == 10
        assert percentile(values, 0.0) == 1

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    def test_summary_of_empty_sequence(self):
        summary = summarize_latencies([])
        assert summary == LatencySummary.empty()
        assert summary.count == 0

    def test_summary_statistics(self):
        summary = summarize_latencies([4.0, 2.0, 6.0, 8.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(5.0)
        assert summary.minimum == 2.0 and summary.maximum == 8.0
        assert summary.p50 == 4.0


class TestRunnerWithLDS:
    def test_sequential_workload_report(self):
        config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
        system = LDSSystem(config, num_writers=1, num_readers=1,
                           latency_model=FixedLatencyModel())
        workload = WorkloadGenerator(seed=1).sequential(num_writes=2, num_reads=2, spacing=60)
        report = WorkloadRunner(system).run(workload)
        assert report.incomplete_operations == 0
        assert report.is_atomic
        assert report.write_latency.count == 2
        assert report.read_latency.count == 2
        assert len(report.write_costs) == 2
        assert report.mean_write_cost > report.mean_read_cost > 0
        assert report.total_communication_cost > 0

    def test_runner_can_skip_atomicity_check(self):
        config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
        system = LDSSystem(config, latency_model=FixedLatencyModel())
        workload = WorkloadGenerator(seed=2).sequential(num_writes=1, num_reads=1, spacing=60)
        report = WorkloadRunner(system, check_atomicity=False).run(workload)
        assert report.atomicity_violation is None
        assert report.incomplete_operations == 0


class TestRunnerWithBaselines:
    def test_same_workload_runs_on_abd(self):
        system = ABDSystem(n=5, num_writers=1, num_readers=1,
                           latency_model=FixedLatencyModel())
        workload = WorkloadGenerator(seed=3).sequential(num_writes=2, num_reads=2, spacing=30)
        report = WorkloadRunner(system).run(workload)
        assert report.incomplete_operations == 0
        assert report.is_atomic
        # ABD write cost is n, read cost up to 2n.
        assert report.mean_write_cost == pytest.approx(5.0)
        assert report.mean_read_cost >= 5.0


class TestKeyedRunnerSessions:
    def test_runner_stamps_sessions(self):
        """The runner stamps every operation's session identity, so merged
        histories carry the cross-shard client sessions."""
        from repro.sim import ClusterSimulation
        from repro.workloads.runner import KeyedWorkloadRunner

        cluster = ClusterSimulation(LDSConfig(n1=3, n2=4, f1=1, f2=1),
                                    ["pool-0", "pool-1"], seed=5)
        generator = WorkloadGenerator(seed=5, client_spacing=60.0)
        workload = generator.keyed_random([f"k{i}" for i in range(4)],
                                          12, 0.5, 300.0)
        report = KeyedWorkloadRunner(cluster).run(workload)
        assert report.is_atomic
        assert len(report.history) == 12
        assert all(op.session == "client-0" for op in report.history)


class TestReadDistribution:
    def _stats(self):
        from repro.cluster.router import RouterStats
        stats = RouterStats()
        stats.primary_reads = 4
        stats.follower_reads = 6
        stats.session_fallbacks = 1
        stats.failover_deferrals = 2
        stats.policy_choices = 10
        stats.policy_honored = 9
        stats.reads_by_replica = {"pool-0": 4, "pool-1": 3, "pool-2": 3}
        return stats

    def test_from_router_stats(self):
        from repro.workloads.metrics import ReadDistribution
        distribution = ReadDistribution.from_router_stats(self._stats())
        assert distribution.total == 10
        assert distribution.follower_fraction == 0.6
        assert distribution.policy_hit_rate == 0.9
        assert distribution.session_fallbacks == 1
        assert distribution.failover_deferrals == 2
        assert distribution.counts == {"pool-0": 4, "pool-1": 3, "pool-2": 3}

    def test_balance_measures(self):
        from repro.workloads.metrics import ReadDistribution
        even = ReadDistribution(counts={"a": 5, "b": 5}, primary_reads=5,
                                follower_reads=5)
        assert even.coefficient_of_variation == 0.0
        assert even.max_over_mean == 1.0
        skewed = ReadDistribution(counts={"a": 9, "b": 1}, primary_reads=9,
                                  follower_reads=1)
        assert skewed.max_over_mean == pytest.approx(1.8)
        assert skewed.coefficient_of_variation > 0.5

    def test_empty_distribution_is_all_zeros(self):
        from repro.workloads.metrics import ReadDistribution
        empty = ReadDistribution()
        assert empty.total == 0
        assert empty.follower_fraction == 0.0
        assert empty.mean == 0.0
        assert empty.coefficient_of_variation == 0.0
        assert "total=0" in empty.describe()


class TestQuorumDistribution:
    def test_quorum_counters_flow_from_router_stats(self):
        from repro.cluster.router import RouterStats
        from repro.workloads.metrics import ReadDistribution
        stats = RouterStats()
        stats.primary_reads = 2
        stats.quorum_reads = 8
        stats.quorum_depths = {2: 6, 1: 2}
        stats.read_repairs = 3
        stats.forwarded_writes = 5
        stats.retired_fallbacks = 1
        stats.session_fallbacks = 4
        distribution = ReadDistribution.from_router_stats(stats)
        assert distribution.total == 10  # quorum reads count once each
        assert distribution.quorum_reads == 8
        assert distribution.mean_quorum_depth == pytest.approx(14 / 8)
        assert distribution.read_repairs == 3
        assert distribution.forwarded_writes == 5
        assert distribution.retired_fallbacks == 1
        assert distribution.session_fallback_rate == pytest.approx(0.4)
        assert "quorum_reads=8" in distribution.describe()
        assert "forwarded_writes=5" in distribution.describe()

    def test_legacy_stats_objects_default_the_new_counters(self):
        # from_router_stats stays duck-typed: an object exposing only the
        # pre-quorum counters must still build a distribution.
        from repro.workloads.metrics import ReadDistribution

        class LegacyStats:
            reads_by_replica = {"a": 1}
            primary_reads = 1
            follower_reads = 0
            session_fallbacks = 0
            failover_deferrals = 0
            policy_hit_rate = 1.0

        distribution = ReadDistribution.from_router_stats(LegacyStats())
        assert distribution.quorum_reads == 0
        assert distribution.mean_quorum_depth == 0.0
        assert distribution.read_repairs == 0
        assert distribution.forwarded_writes == 0
