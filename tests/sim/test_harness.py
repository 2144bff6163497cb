"""ClusterSimulation harness: driving, arrivals, epochs on the global clock."""

from __future__ import annotations

import pytest

from repro.core.config import LDSConfig
from repro.sim import ClusterSimulation
from repro.workloads.generator import ScheduledOperation, Workload, WorkloadGenerator
from repro.workloads.runner import KeyedWorkloadRunner

KEYS = [f"obj-{i}" for i in range(10)]
POOLS = ["pool-0", "pool-1"]


@pytest.fixture
def config() -> LDSConfig:
    return LDSConfig(n1=3, n2=4, f1=1, f2=1)


class TestDriving:
    def test_synchronous_reads_and_writes_on_the_global_clock(self, config):
        simulation = ClusterSimulation(config, POOLS, seed=1)
        router = simulation.router
        for i, key in enumerate(KEYS):
            router.write(key, f"value-{i}".encode())
        for i, key in enumerate(KEYS):
            assert router.read(key).value == f"value-{i}".encode()
        assert simulation.kernel.events_processed > 0
        assert simulation.check_atomicity() is None

    def test_arrivals_create_shards_at_their_nominal_global_time(self, config):
        simulation = ClusterSimulation(config, POOLS, seed=1)
        generator = WorkloadGenerator(seed=1, client_spacing=60.0)
        workload = generator.keyed_random(KEYS, 40, 0.5, 300.0)
        simulation.add_workload(workload)
        simulation.run_until_idle()
        assert simulation.arrivals == 40
        history = simulation.history()
        nominal = {op.at for op in workload.operations}
        # Global invocation times equal the nominal workload times (each
        # arrival is injected exactly when the global clock reaches it).
        assert {op.invoked_at for op in history} == nominal
        assert simulation.check_atomicity() is None

    def test_keyed_runner_drives_the_kernel_transparently(self, config):
        simulation = ClusterSimulation(config, POOLS, seed=2)
        generator = WorkloadGenerator(seed=2, client_spacing=60.0)
        workload = generator.zipf_keyed(KEYS, 50, 0.4, 300.0)
        report = KeyedWorkloadRunner(simulation).run(workload)
        assert report.is_atomic
        assert report.incomplete_operations == 0
        assert len(report.write_costs) == workload.write_count
        assert len(report.read_costs) == workload.read_count
        assert all(cost > 0 for cost in report.write_costs.values())
        # The workload really ran through the merged pump, via the
        # harness's own arrival machinery.
        assert simulation.interleaving.context_switches > 0
        assert simulation.arrivals == len(workload)

    def test_runner_reuse_after_clock_advanced_shifts_uniformly(self, config):
        """A second workload whose nominal window already passed must be
        shifted forward as a block (preserving per-client spacing), not
        collapsed onto the current instant."""
        simulation = ClusterSimulation(config, POOLS, seed=8)
        generator = WorkloadGenerator(seed=8, client_spacing=60.0)
        first = KeyedWorkloadRunner(simulation).run(
            generator.keyed_random(KEYS, 30, 0.5, 300.0))
        assert first.is_atomic
        advanced = simulation.now
        second = KeyedWorkloadRunner(simulation).run(
            generator.keyed_random(KEYS, 30, 0.5, 300.0))
        assert second.is_atomic
        assert second.incomplete_operations == 0
        late = [op for op in simulation.history()
                if op.invoked_at >= advanced]
        # the second workload kept its spread instead of firing all at once
        assert len({op.invoked_at for op in late}) > 10

    def test_add_workload_in_the_past_shifts_uniformly(self, config):
        simulation = ClusterSimulation(config, POOLS, seed=8)
        simulation.kernel.schedule_at(500.0, lambda: None)
        simulation.run_until_idle()
        generator = WorkloadGenerator(seed=8, client_spacing=60.0)
        workload = generator.keyed_random(KEYS, 20, 0.5, 200.0)
        simulation.add_workload(workload, start=0.0)
        simulation.run_until_idle()
        assert simulation.check_atomicity() is None
        invoked = sorted(op.invoked_at
                         for op in simulation.history())
        # the earliest operation lands exactly at the clock, the rest keep
        # their relative spacing behind it
        assert invoked[0] == pytest.approx(500.0)
        assert len(set(invoked)) > 10

    def test_workload_with_too_many_clients_rejected_up_front(self, config):
        from repro.sim import flash_crowd
        simulation = ClusterSimulation(config, POOLS, seed=5)  # 1 client/shard
        scenario = flash_crowd(KEYS, seed=5, operations=20, crowd_operations=20,
                               shift_at=100.0, duration=200.0)
        with pytest.raises(ValueError, match="writers_per_shard"):
            simulation.apply(scenario)
        # nothing ran: the rejection happened at schedule time
        assert simulation.arrivals == 0

    def test_runner_rejects_oversized_client_indices_on_every_surface(self, config):
        from dataclasses import replace
        generator = WorkloadGenerator(seed=5, client_spacing=60.0)
        workload = generator.keyed_random(KEYS, 10, 0.5, 100.0)
        workload.operations = [replace(op, client_index=op.client_index + 1)
                               for op in workload.operations]
        simulation = ClusterSimulation(config, POOLS, seed=5)
        for system in (simulation, simulation.router):
            with pytest.raises(ValueError, match="per_shard"):
                KeyedWorkloadRunner(system).run(workload)

    def test_past_due_shift_survives_float_rounding(self, config):
        """(now - a) + a can round below now; the arrival must be clamped,
        not rejected as 'in the global past'."""
        simulation = ClusterSimulation(config, POOLS, seed=1)
        # A (clock, operation.at) pair where the round trip loses an ulp.
        now, op_at = 1261.714742492535, 129.45837514648167
        assert (now - op_at) + op_at < now  # the pair really misbehaves
        simulation.kernel.schedule_at(now, lambda: None)
        simulation.run_until_idle()
        workload = Workload().add(ScheduledOperation(
            kind="write", at=op_at, value=b"x", key="obj-0"))
        simulation.add_workload(workload)  # must not raise
        simulation.run_until_idle()
        assert simulation.arrivals == 1
        assert simulation.check_atomicity() is None

    def test_drain_time_inflation_does_not_delay_the_new_epoch(self, config):
        """A migration drain executes future callbacks (e.g. rate-limited
        repairs) inline; the new epoch must still start at the migration
        instant, not at the fast-forwarded shard clock."""
        simulation = ClusterSimulation(config, POOLS, seed=21,
                                       repair_min_interval=50.0,
                                       repair_detection_delay=1.0)
        keys = [f"d-{i}" for i in range(12)]
        simulation.ensure_shards(keys)
        pool0_keys = [s.key for s in simulation.router.shards_on_pool("pool-0")]
        assert pool0_keys
        simulation.kernel.schedule_at(
            50.0, lambda: simulation.fail_node("pool-0/l2-0", time=50.0))
        # pool-0 leaves at t=120 while its repairs are slotted far beyond.
        leave_at = 120.0
        simulation.kernel.schedule_at(
            leave_at, lambda: simulation.remove_pool("pool-0", time=leave_at))
        simulation.run_until_idle()
        moved = [(t, key) for t, key, source, _ in
                 simulation.router.migration_log if source == "pool-0"]
        assert moved
        # every migration is logged at (or very near) the leave instant,
        # not after the drained repair slots at t=171/221/...
        assert all(leave_at <= t < leave_at + 40.0 for t, _ in moved)
        # and new-epoch traffic is not silently postponed either
        key = moved[0][1]
        write_at = simulation.now
        simulation.router.write(key, b"after-migration")
        late = [op for op in simulation.history()
                if op.value == b"after-migration"]
        assert late and late[0].invoked_at <= write_at + 1e-6
        assert simulation.check_atomicity() is None

    def test_migrating_a_lagging_shard_stays_on_the_global_timeline(self, config):
        """A shard idle since early in the run migrates when a pool joins
        much later; the new epoch must start at the join time, not back at
        the shard's stale clock."""
        simulation = ClusterSimulation(config, POOLS, seed=13)
        keys = [f"lag-{i}" for i in range(12)]
        for key in keys:
            simulation.router.write(key, b"early")  # shards idle from ~t=30
        drained = simulation.now
        join_at = drained + 500.0
        simulation.kernel.schedule_at(
            join_at, lambda: simulation.add_pool("pool-late", time=join_at))
        simulation.run_until_idle()
        moved = [entry for entry in simulation.router.migration_log]
        assert moved, "expected at least one shard to move to the new pool"
        assert all(time >= join_at for time, *_ in moved)
        # a write after the migration lands after the join on the global clock
        key = moved[0][1]
        simulation.router.write(key, b"late")
        late_ops = [op for op in simulation.history()
                    if op.value == b"late"]
        assert late_ops and all(op.invoked_at >= join_at for op in late_ops)
        assert simulation.check_atomicity() is None

    def test_run_until_bounded_global_time(self, config):
        simulation = ClusterSimulation(config, POOLS, seed=3)
        generator = WorkloadGenerator(seed=3, client_spacing=60.0)
        simulation.add_workload(generator.keyed_random(KEYS, 30, 0.5, 400.0))
        simulation.run(until=200.0)
        assert simulation.now == 200.0
        mid_flight = [op for op in simulation.history() if not op.is_complete]
        simulation.run_until_idle()
        assert all(op.is_complete for op in simulation.history())
        # the bounded run stopped somewhere inside the workload
        assert simulation.arrivals == 30
        assert mid_flight or True  # presence depends on timing; no flake


class TestMembershipTimeDefaults:
    def test_failure_without_a_time_happens_now_not_at_global_zero(self, config):
        """Regression: ``time`` used to default to 0.0 -- the global past
        once the clock has advanced -- so repairs were slotted and logged
        long before the failure that caused them was injected."""
        simulation = ClusterSimulation(config, POOLS, seed=4)
        simulation.ensure_shards(KEYS)
        simulation.kernel.schedule_at(200.0, lambda: None)
        simulation.run_until_idle()
        assert simulation.now == 200.0
        event = simulation.fail_node("pool-0/l2-0")
        assert event.time == 200.0
        simulation.run_until_idle()
        tasks = simulation.repair.tasks
        assert tasks and all(task.scheduled_at >= 200.0 for task in tasks)
        repairs = [time for time, category, _ in simulation.timeline()
                   if category.startswith("repair-")]
        assert repairs and min(repairs) >= 200.0
        # an explicit time keeps its meaning
        assert simulation.fail_node("pool-1/l2-0", time=250.0).time == 250.0


class TestCompatibilityShim:
    """What the removed attach-a-kernel-later shim promised about epochs,
    on a cluster that has its kernel from the start."""

    def test_attach_after_migrations_keeps_epoch_order_on_global_clock(self, config):
        """Retired epochs must map *before* their successors on the
        global timeline (the drain barrier guarantees exactly that)."""
        cluster = ClusterSimulation(config, POOLS, seed=6)
        keys = [f"mv-{i}" for i in range(10)]
        for key in keys:
            cluster.write(key, b"epoch0")
        cluster.add_pool("pool-extra")
        assert cluster.router.stats.migrations >= 1
        moved = {key for _, key, _, _ in cluster.router.migration_log}
        for key in moved:
            cluster.write(key, b"epoch1")
        history = cluster.history()
        for key in moved:
            epoch0 = [op for op in history if op.op_id.startswith(f"{key}/")]
            epoch1 = [op for op in history if op.op_id.startswith(f"{key}@e1/")]
            assert epoch0 and epoch1
            latest_before = max(op.responded_at or op.invoked_at
                                for op in epoch0)
            earliest_after = min(op.invoked_at for op in epoch1)
            assert latest_before <= earliest_after
        # and the migrated cluster still works end to end
        for key in moved:
            assert cluster.read(key).value == b"epoch1"
        assert cluster.check_atomicity() is None
