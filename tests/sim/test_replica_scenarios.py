"""The replica scenario family: failover under load, degraded reads.

These are the acceptance tests of the replica-group subsystem: r=3 on the
global clock, follower reads carrying a real share of the traffic, a pool
kill driving deterministic promotion, and the combined atomicity + session
audit staying clean under fixed seeds -- with the injection drill proving
a stale follower read *would* be caught if the guard ever let one through.
"""

from __future__ import annotations

import pytest

from repro.cluster.replicas import ReplicationConfig
from repro.consistency.injection import (
    inject_stale_follower_read,
    is_follower_read,
)
from repro.consistency.sessions import check_sessions
from repro.core.config import LDSConfig
from repro.sim import (
    ClusterSimulation,
    degraded_reads_during_catch_up,
    replica_failover_under_load,
)

KEYS = [f"obj-{i}" for i in range(16)]
POOLS = [f"pool-{i}" for i in range(4)]


@pytest.fixture
def config() -> LDSConfig:
    return LDSConfig(n1=3, n2=4, f1=1, f2=1)


def run_failover(config, policy: str, seed: int = 7) -> ClusterSimulation:
    simulation = ClusterSimulation(
        config, POOLS, seed=seed,
        replication=ReplicationConfig(r=3, replication_lag=25.0,
                                      failover_detection_delay=12.0),
        read_policy=policy,
    )
    simulation.ensure_shards(KEYS)
    simulation.apply(replica_failover_under_load(KEYS, "pool-0", seed=seed))
    return simulation


class TestReplicaFailoverUnderLoad:
    @pytest.mark.parametrize("policy", ["round-robin", "nearest"])
    def test_followers_carry_at_least_30_percent_and_audit_clean(self, config,
                                                                 policy):
        simulation = run_failover(config, policy)
        distribution = simulation.read_distribution()
        assert distribution.follower_fraction >= 0.30, distribution.describe()
        # The kill triggered deterministic promotion for every group whose
        # primary lived on the victim pool.
        stats = simulation.replicas.stats
        assert stats.failovers_started >= 1
        assert stats.promotions == stats.failovers_started
        report = simulation.audit()
        assert report.ok, report.describe()

    def test_promotion_is_visible_on_the_timeline(self, config):
        simulation = run_failover(config, "round-robin")
        timeline = simulation.timeline()
        kinds = [kind for _, kind, _ in timeline]
        assert "kill-pool" in kinds
        assert "primary-down" in kinds
        assert "promote" in kinds
        # Order: the kill precedes every promotion.
        kill_at = next(t for t, kind, _ in timeline if kind == "kill-pool")
        for t, kind, _ in timeline:
            if kind == "promote":
                assert t >= kill_at

    def test_same_seed_replays_identically(self, config):
        first = run_failover(config, "round-robin")
        second = run_failover(config, "round-robin")
        assert first.kernel.fingerprint == second.kernel.fingerprint
        assert first.kernel.stats.events_total \
            == second.kernel.stats.events_total
        assert (first.read_distribution().counts
                == second.read_distribution().counts)
        assert [e for e in first.replicas.failover_log] \
            == [e for e in second.replicas.failover_log]

    def test_stale_follower_injection_is_detected(self, config):
        simulation = run_failover(config, "round-robin")
        history = simulation.history()
        assert any(is_follower_read(op) for op in history)
        injection = inject_stale_follower_read(history)
        report = check_sessions(injection.history)
        assert not report.ok
        blamed = {op_id for violation in report.violations
                  for op_id in violation.operations}
        assert injection.mutated[0] in blamed


class TestDegradedReadsDuringCatchUp:
    def test_follower_reads_flow_through_the_failover_window(self, config):
        simulation = ClusterSimulation(
            config, POOLS, seed=3,
            writers_per_shard=2, readers_per_shard=2,
            replication=ReplicationConfig(r=3, replication_lag=30.0,
                                          failover_detection_delay=20.0,
                                          catch_up_per_record=2.0),
            read_policy="least-loaded",
        )
        simulation.ensure_shards(KEYS)
        simulation.apply(degraded_reads_during_catch_up(KEYS, "pool-1",
                                                        seed=3))
        assert simulation.replicas.stats.promotions >= 1
        # Reads served by follower stores *inside* the failover windows.
        windows = []
        down_at = {}
        for time, kind, detail in simulation.replicas.failover_log:
            key = detail.split(":")[0]
            if kind == "primary-down":
                down_at[key] = time
            elif kind == "promote" and key in down_at:
                windows.append((down_at.pop(key), time))
        assert windows
        degraded = [
            op for op in simulation.history()
            if is_follower_read(op)
            and any(start <= op.invoked_at <= end for start, end in windows)
        ]
        assert degraded, "the read burst must be served degraded by followers"
        report = simulation.audit()
        assert report.ok, report.describe()
