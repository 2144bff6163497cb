"""Epoch hand-offs: a key's migrations and failovers, audited as one
register history."""

from __future__ import annotations

import pytest

from repro.cluster.placement import ShardMove
from repro.cluster.replicas import ReplicaCoordinator, ReplicationConfig
from repro.cluster.router import ObjectRouter
from repro.core.config import LDSConfig
from repro.obs import Telemetry
from repro.sim import migration_under_load
from repro.sim.harness import ClusterSimulation

KEYS = [f"obj-{i}" for i in range(12)]
POOLS = [f"pool-{i}" for i in range(4)]


@pytest.fixture
def config() -> LDSConfig:
    return LDSConfig(n1=3, n2=4, f1=1, f2=1)


def acked_writes_then_pool_kill(config) -> ClusterSimulation:
    """Two acknowledged writes no follower applied (lag 1000), then the
    primary pool dies and a read waits for the promotion."""
    simulation = ClusterSimulation(
        config, [f"pool-{i}" for i in range(4)], seed=5,
        replication=ReplicationConfig(r=3, replication_lag=1000.0,
                                      failover_detection_delay=5.0,
                                      catch_up_per_record=2.0),
        read_policy="primary",
    )
    for value in (b"v1", b"v2"):
        handle = simulation.invoke_write("k", value, session="s")
        simulation.flush_key("k")
        simulation.run(until=simulation.now + 40.0)
        assert simulation.router.result(handle) is not None
    group = simulation.replicas.groups["k"]
    simulation.fail_pool(group.primary_pool, time=simulation.now)
    simulation.invoke_read("k", session="s2")
    simulation.run_until_idle()
    return simulation


class TestAudit:
    def test_a_failover_records_its_hand_off_read(self, config):
        simulation = acked_writes_then_pool_kill(config)
        shard = simulation.router.shards["k"]
        [handoff] = shard.handoffs
        assert (handoff.op_id, handoff.value) == ("handoff", b"v2")
        assert handoff in shard.retired_histories[0].operations
        assert shard.system.config.initial_value == b"v2"
        assert all(op.op_id != "k/handoff" for op in simulation.history())
        assert simulation.audit().ok

    def test_a_skipped_catch_up_fails_the_audit(self, config, monkeypatch):
        monkeypatch.setattr(ReplicaCoordinator, "_catch_up",
                            lambda self, store: 0)
        simulation = acked_writes_then_pool_kill(config)
        violation = simulation.audit().atomicity
        assert violation is not None
        assert str(violation).startswith("k epoch 0: ")
        assert "handoff" in violation.operations

    def test_a_migration_from_the_wrong_value_fails_the_audit(
            self, config, monkeypatch):
        build = ObjectRouter._build_shard

        def from_retiring_initial(router, key, pool, epoch, initial_value):
            retiring = router._shards.get(key)
            if retiring is not None:
                initial_value = retiring.system.config.initial_value
            return build(router, key, pool, epoch, initial_value)

        monkeypatch.setattr(ObjectRouter, "_build_shard",
                            from_retiring_initial)
        simulation = ClusterSimulation(config, ["pool-0", "pool-1"], seed=11,
                                       repair_min_interval=10.0)
        simulation.ensure_shards(KEYS)
        simulation.apply(migration_under_load(
            KEYS, "pool-9", seed=11, operations=60, duration=400.0,
            join_at=150.0))
        violation = simulation.audit().atomicity
        assert violation is not None
        assert " epoch 0: the next epoch does not start from the hand-off " \
            "read's value" in str(violation)


def replicated(config, **options) -> ClusterSimulation:
    """Key ``k`` written once on a four-pool r=3 cluster, primary reads."""
    simulation = ClusterSimulation(
        config, POOLS, seed=3,
        replication=ReplicationConfig(r=3, replication_lag=25.0,
                                      failover_detection_delay=10.0),
        read_policy="primary", **options)
    simulation.write("k", b"v1")
    simulation.run_until_idle()
    return simulation


def spare_pool(simulation) -> str:
    """The pool holding no replica of ``k``."""
    group = simulation.replicas.groups["k"]
    [spare] = [pool for pool in POOLS if pool not in group.pools()]
    return spare


class TestOneHandOff:
    def test_a_failover_takes_over_a_migration_under_way(self, config):
        simulation = replicated(config)
        router = simulation.router
        group = simulation.replicas.groups["k"]
        primary = group.primary_pool
        successor = group.live_followers()[0].pool
        in_flight = router.invoke_write("k", b"v2")
        router.flush_key("k")
        router.migrate(ShardMove("k", primary, spare_pool(simulation)))
        simulation.fail_pool(primary, time=simulation.now)
        simulation.run_until_idle()
        shard = router.shards["k"]
        assert (shard.pool, shard.epoch) == (successor, 1)
        assert router.stats.migrations == 0
        assert [read.op_id for read in shard.handoffs] == ["handoff"]
        assert simulation.audit().ok
        # The write in flight at the crash never completes.
        assert router.result(in_flight) is None
        assert router.incomplete_operations() == 1

    def test_a_key_failing_over_cannot_migrate(self, config):
        simulation = replicated(config)
        primary = simulation.replicas.groups["k"].primary_pool
        simulation.fail_pool(primary, time=simulation.now)
        with pytest.raises(ValueError, match="failing over"):
            simulation.router.migrate(
                ShardMove("k", primary, spare_pool(simulation)))
        simulation.run_until_idle()
        assert simulation.audit().ok

    def test_a_write_held_by_a_failover_gets_a_freeze_wait_span(self, config):
        telemetry = Telemetry.full()
        simulation = replicated(config, telemetry=telemetry)
        group = simulation.replicas.groups["k"]
        simulation.fail_pool(group.primary_pool, time=simulation.now)
        write = simulation.router.invoke_write("k", b"v2", at=simulation.now)
        simulation.run_until_idle()
        assert simulation.router.result(write) is not None
        span, = telemetry.trace.spans("freeze-wait")
        assert span["args"]["parent"] == write
        assert span["args"]["promoted"] == group.primary_pool
        assert span["cat"] == "router"
        assert telemetry.trace.open_handles() == []

    def test_an_operation_held_by_a_migration_gets_a_freeze_wait_span(
            self, config):
        telemetry = Telemetry.full()
        simulation = replicated(config, telemetry=telemetry)
        router = simulation.router
        target = spare_pool(simulation)
        router.invoke_write("k", b"v2")
        router.flush_key("k")
        router.migrate(ShardMove("k", router.shards["k"].pool, target))
        read = router.invoke_read("k", at=simulation.now)
        simulation.run_until_idle()
        assert router.result(read).value == b"v2"
        span, = telemetry.trace.spans("freeze-wait")
        assert span["args"]["parent"] == read
        assert span["args"]["promoted"] == target
        assert simulation.audit().ok
