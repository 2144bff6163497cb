"""ObjectRouter fan-out correctness, batching and migration."""

from __future__ import annotations

import pytest

from repro.cluster.membership import Membership
from repro.cluster.replicas import ReplicationConfig
from repro.cluster.router import ObjectRouter
from repro.core.config import LDSConfig
from repro.net.latency import FixedLatencyModel
from repro.sim import (
    ClusterSimulation,
    migration_under_load,
    replica_failover_under_load,
)
from repro.sim.kernel import GlobalScheduler

POOLS = ["pool-0", "pool-1", "pool-2"]


@pytest.fixture
def config() -> LDSConfig:
    return LDSConfig(n1=3, n2=4, f1=1, f2=1)


@pytest.fixture
def router(config) -> ObjectRouter:
    membership = Membership.for_pools(POOLS, n1=config.n1, n2=config.n2)
    return ObjectRouter(
        config, membership, GlobalScheduler(),
        latency_factory=lambda pool, key: FixedLatencyModel(tau0=1, tau1=1, tau2=10),
    )


class TestFanOut:
    def test_values_round_trip_per_key(self, router):
        for i in range(12):
            router.write(f"obj-{i}", f"value-{i}".encode())
        for i in range(12):
            assert router.read(f"obj-{i}").value == f"value-{i}".encode()

    def test_shards_land_on_the_ring_prescribed_pool(self, router):
        for i in range(20):
            router.write(f"obj-{i}", b"x")
        for key, shard in router.shards.items():
            assert shard.pool == router.membership.pool_for(key)

    def test_keys_are_isolated(self, router):
        router.write("obj-a", b"alpha")
        router.write("obj-b", b"beta")
        assert router.read("obj-a").value == b"alpha"
        assert router.read("obj-b").value == b"beta"

    def test_shard_counts_cover_all_pools(self, router):
        for i in range(30):
            router.write(f"obj-{i}", b"x")
        counts = router.shard_counts()
        assert set(counts) == set(POOLS)
        assert sum(counts.values()) == 30

    def test_merged_history_is_well_formed_and_atomic(self, router):
        for i in range(8):
            router.write(f"obj-{i}", bytes([i + 1]) * 4)
            router.read(f"obj-{i}")
        history = router.history()
        assert len(history) == 16
        assert history.is_well_formed()
        assert router.check_atomicity() is None

    def test_operation_cost_and_communication_cost(self, router):
        handle_w = router.invoke_write("obj-0", b"payload")
        router.run_until_idle()
        assert router.operation_cost(handle_w) > 0
        assert router.communication_cost >= router.operation_cost(handle_w)
        assert router.result(handle_w) is not None


class TestBatching:
    def test_queued_operations_flush_as_one_batch_per_shard(self, router):
        for index in range(6):
            router.invoke_write("obj-0", bytes([index + 1]), at=60.0 * index)
        assert router.stats.batches_flushed == 0
        flushed = router.flush()
        assert flushed == 6
        assert router.stats.batches_flushed == 1
        assert router.stats.largest_batch == 6
        router.run_until_idle()
        assert router.check_atomicity() is None

    def test_scheduling_behind_the_shard_clock_shifts_the_batch(self, router):
        router.invoke_write("obj-0", b"first", at=0.0)
        router.run_until_idle()
        # The shard clock is now far ahead of t=0; a new nominal window
        # starting at 0 must be shifted, preserving client well-formedness.
        router.invoke_write("obj-0", b"second", at=0.0)
        router.invoke_read("obj-0", at=60.0)
        router.run_until_idle()
        assert router.check_atomicity() is None
        assert router.incomplete_operations() == 0
        assert router.read("obj-0").value == b"second"


class TestFailureHandling:
    def test_node_failure_crashes_the_slot_on_every_pool_shard(self, router, config):
        for i in range(20):
            router.write(f"obj-{i}", b"x")
        pool = "pool-1"
        affected = router.shards_on_pool(pool)
        assert affected, "placement should put some of 20 keys on pool-1"
        router.membership.fail(f"{pool}/l2-2", time=0.0)
        for shard in affected:
            assert shard.system.alive_l2_count() == config.n2 - 1
        for shard in router.shards.values():
            if shard.pool != pool:
                assert shard.system.alive_l2_count() == config.n2

    def test_shard_created_on_degraded_pool_starts_degraded(self, router, config):
        router.membership.fail("pool-0/l2-0", time=0.0)
        key = next(k for k in (f"k-{i}" for i in range(100))
                   if router.membership.pool_for(k) == "pool-0")
        shard = router.shard(key)
        assert shard.system.alive_l2_count() == config.n2 - 1

    def test_reads_survive_one_l2_failure(self, router):
        router.write("obj-0", b"durable")
        pool = router.shards["obj-0"].pool
        router.membership.fail(f"{pool}/l2-0", time=0.0)
        assert router.read("obj-0").value == b"durable"


class TestMigration:
    def test_rebalance_moves_values_and_keeps_atomicity(self, router, config):
        for i in range(15):
            router.write(f"obj-{i}", f"v{i}".encode())
        router.membership.join_pool("pool-3", n1=config.n1, n2=config.n2)
        plan = router.rebalance(reason="join pool-3")
        assert plan.moves, "a new pool should attract some shards"
        assert router.stats.migrations == len(plan)
        for move in plan.moves:
            assert router.shards[move.key].pool == move.target
            assert router.shards[move.key].epoch == 1
        for i in range(15):
            assert router.read(f"obj-{i}").value == f"v{i}".encode()
        assert router.check_atomicity() is None

    def test_archived_epoch_results_remain_queryable(self, router, config):
        handle = router.invoke_write("obj-0", b"before-move")
        router.run_until_idle()
        cost_before = router.operation_cost(handle)
        router.membership.join_pool("pool-3", n1=config.n1, n2=config.n2)
        # Force a move of obj-0 regardless of where the ring would put it.
        from repro.cluster.placement import ShardMove
        source = router.shards["obj-0"].pool
        target = next(p for p in router.membership.pools if p != source)
        router.migrate(ShardMove(key="obj-0", source=source, target=target))
        assert router.result(handle) is not None
        assert router.operation_cost(handle) == cost_before
        assert router.read("obj-0").value == b"before-move"

    def test_migration_copy_read_is_excluded_from_merged_history(self, router, config):
        from repro.cluster.placement import ShardMove
        router.write("obj-0", b"payload")
        before_reads = len(router.history().reads())
        source = router.shards["obj-0"].pool
        target = next(p for p in router.membership.pools if p != source)
        router.migrate(ShardMove(key="obj-0", source=source, target=target))
        # The internal copy read is real traffic but not a workload read.
        assert len(router.history().reads()) == before_reads
        assert router.check_atomicity() is None

    def test_back_to_back_migrations_keep_the_epochs_in_real_time_order(
            self, router):
        from repro.cluster.placement import ShardMove
        router.write("obj-0", b"first")
        # Not pumped: the inline drain completes this write *ahead* of the
        # kernel clock, and the next epoch is born where it responded.
        router.invoke_write("obj-0", b"second")
        first = router.shards["obj-0"].pool
        second, third = (pool for pool in POOLS if pool != first)
        router.migrate(ShardMove(key="obj-0", source=first, target=second))
        drained_at = router.migration_log[-1][0]
        assert drained_at > router.kernel.now
        # The new epoch sees no operation before it moves again: the third
        # epoch must still begin after the first one's last response.
        router.migrate(ShardMove(key="obj-0", source=second, target=third))
        assert router.migration_log[-1][0] == drained_at
        assert router.read("obj-0").value == b"second"
        [late_read] = router.history().reads()
        assert late_read.invoked_at >= drained_at

    def test_a_bare_rebalance_is_stamped_now_and_pays_the_copy_delay(self):
        config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
        replication = ReplicationConfig(r=2)
        simulation = ClusterSimulation(config, ["p0", "p1", "p2"], seed=3,
                                       replication=replication)
        for i in range(12):
            simulation.write(f"k{i}", b"v")
        simulation.run(until=1000.0)
        simulation.membership.join_pool("p3", n1=config.n1, n2=config.n2,
                                        time=simulation.now)
        assert simulation.router.pending_rebalance().time == 1000.0
        plan = simulation.router.rebalance(reason="bare")
        simulation.run_until_idle()
        assert plan.time == 1000.0
        provisioned = [time for time, kind, _ in simulation.replicas.failover_log
                       if kind == "follower-provisioned"]
        assert provisioned
        assert set(provisioned) == {1000.0 + replication.provision_delay}


class TestOneTimeDomain:
    """Every epoch's own recorder runs on the global clock from its first
    event, so the merged history translates nothing."""

    @staticmethod
    def _run(scenario_name: str):
        config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
        keys = [f"obj-{i}" for i in range(12)]
        if scenario_name == "migration_under_load":
            simulation = ClusterSimulation(config, POOLS[:2], seed=11)
            scenario = migration_under_load(keys, "pool-9", seed=11,
                                            operations=80, join_at=150.0)
        else:
            simulation = ClusterSimulation(
                config, POOLS + ["pool-3"], seed=7,
                replication=ReplicationConfig(r=3, replication_lag=25.0,
                                              failover_detection_delay=12.0))
            scenario = replica_failover_under_load(keys, "pool-0", seed=7,
                                                   operations=120)
        simulation.ensure_shards(keys)
        simulation.apply(scenario)
        return simulation

    @staticmethod
    def _epoch_births(simulation) -> dict:
        """(key, epoch) -> the instant the logs say the epoch began."""
        starts = [(time, key) for time, key, _source, _target
                  in simulation.router.migration_log]
        if simulation.replicas is not None:
            starts += [(time, detail.split(":")[0]) for time, kind, detail
                       in simulation.replicas.failover_log
                       if kind == "promote"]
        births: dict = {}
        for time, key in sorted(starts):
            epoch = 1 + sum(1 for born_key, _ in births if born_key == key)
            births[(key, epoch)] = time
        return births

    @pytest.mark.parametrize("scenario_name", ["migration_under_load",
                                               "replica_failover_under_load"])
    def test_epochs_record_global_time_from_their_birth(self, scenario_name):
        simulation = self._run(scenario_name)
        router = simulation.router
        births = self._epoch_births(simulation)
        assert births and min(births.values()) > 0.0
        merged = {op.op_id: op for op in router.history()}
        late_operations = 0
        for shard in router.shards.values():
            epochs = shard.retired_histories + [shard.system.history()]
            assert len(epochs) == shard.epoch + 1
            for epoch, recorded in enumerate(epochs):
                born = births[(shard.key, epoch)] if epoch else 0.0
                for op in recorded:
                    assert op.invoked_at >= born, (op.object_id, op.op_id)
                    late_operations += epoch > 0
                    shown = merged.get(f"{op.object_id}/{op.op_id}")
                    if shown is not None:  # internal copy reads are not
                        assert (shown.invoked_at, shown.responded_at) \
                            == (op.invoked_at, op.responded_at)
        assert late_operations

    def test_a_shard_first_used_late_starts_at_the_global_instant(
            self, router):
        router.kernel.run(until=500.0)
        result = router.write("late", b"x")
        [recorded] = router.shards["late"].system.history()
        assert 500.0 <= recorded.invoked_at == result.invoked_at
        [merged] = router.history()
        assert (merged.invoked_at, merged.responded_at) \
            == (recorded.invoked_at, recorded.responded_at)


class TestSessionThreading:
    def test_sessions_attach_to_merged_history(self, router):
        router.invoke_write("obj-0", b"a", session="alice")
        router.invoke_read("obj-1", session="alice")
        router.invoke_write("obj-2", b"b")
        router.run_until_idle()
        sessions = {op.object_id: op.session for op in router.history()}
        assert sessions["obj-0"] == "alice"
        assert sessions["obj-1"] == "alice"
        assert sessions["obj-2"] is None

    def test_sessions_survive_migration_archival(self, router):
        from repro.cluster.placement import ShardMove

        router.invoke_write("obj-0", b"x", session="s")
        router.run_until_idle()
        source = router.shards["obj-0"].pool
        target = next(p for p in router.membership.pools if p != source)
        router.migrate(ShardMove(key="obj-0", source=source, target=target))
        [write_op] = router.history().writes()
        assert write_op.session == "s"

    def test_keys_colliding_with_epoch_suffix_are_rejected(self, router):
        """A user key ending in '@e<n>' would make merged object ids (and
        the session auditor's key/epoch parse) ambiguous."""
        with pytest.raises(ValueError, match="reserved epoch suffix"):
            router.write("sensor@e2", b"x")
        router.write("sensor@exp", b"x")  # non-numeric suffix is a plain key
        assert router.read("sensor@exp").value == b"x"
