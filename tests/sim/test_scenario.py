"""Scenario engine tests, including the cross-shard interleaving acceptance
criterion: repair and migration events interleave with foreground operations
across at least two shards on one global timeline, while every shard history
stays atomic."""

from __future__ import annotations

import pytest

from repro.core.config import LDSConfig
from repro.sim import (
    ClusterSimulation,
    Scenario,
    ScenarioAction,
    correlated_pool_failure,
    flash_crowd,
    migration_under_load,
    repair_under_load,
)
from repro.sim.scenario import (
    FAIL_NODE,
    JOIN_POOL,
    LATENCY_SHIFT,
    WORKLOAD_PHASE,
)

KEYS = [f"obj-{i}" for i in range(16)]
POOLS = ["pool-0", "pool-1"]


@pytest.fixture
def config() -> LDSConfig:
    return LDSConfig(n1=3, n2=4, f1=1, f2=1)


def _shard_key(op_id: str) -> str:
    """The object key behind a merged-history operation id."""
    return op_id.split("/")[0].split("@")[0]


class TestActionValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScenarioAction(at=0.0, kind="meteor-strike")

    def test_workload_phase_needs_a_workload(self):
        with pytest.raises(ValueError):
            ScenarioAction(at=0.0, kind=WORKLOAD_PHASE)

    def test_targeted_actions_need_a_target(self):
        with pytest.raises(ValueError):
            ScenarioAction(at=0.0, kind=FAIL_NODE)

    @pytest.mark.parametrize("at", [-1.0, float("inf"), float("nan")])
    def test_action_times_must_be_finite_and_not_negative(self, at):
        with pytest.raises(ValueError, match="finite and not negative"):
            ScenarioAction(at=at, kind=LATENCY_SHIFT, scale=2.0)

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("inf"), float("nan")])
    def test_scales_and_weights_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            ScenarioAction(at=1.0, kind=LATENCY_SHIFT, scale=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            ScenarioAction(at=1.0, kind=JOIN_POOL, target="pool-9", weight=bad)

    def test_scenario_orders_actions_by_time(self):
        scenario = Scenario(name="s")
        scenario.add(ScenarioAction(at=5.0, kind=LATENCY_SHIFT, scale=2.0))
        scenario.add(ScenarioAction(at=1.0, kind=LATENCY_SHIFT, scale=1.5))
        assert [a.at for a in scenario.sorted_actions()] == [1.0, 5.0]
        assert scenario.duration == 5.0


class TestRepairUnderLoadInterleaving:
    """The acceptance scenario: repair + migration vs foreground load."""

    @pytest.fixture
    def simulation(self, config) -> ClusterSimulation:
        simulation = ClusterSimulation(config, POOLS, seed=11,
                                       repair_min_interval=10.0)
        scenario = repair_under_load(
            KEYS, "pool-0/l2-0", seed=11,
            operations=100, duration=600.0, fail_at=120.0,
        )
        scenario.add(ScenarioAction(at=300.0, kind=JOIN_POOL, target="pool-2",
                                    label="join pool-2"))
        simulation.apply(scenario)
        return simulation

    def test_every_shard_history_is_atomic(self, simulation):
        assert simulation.check_atomicity() is None
        assert all(op.is_complete for op in simulation.history())

    def test_repairs_happened_and_node_recovered(self, simulation):
        assert simulation.repair.stats.repairs_completed >= 1
        assert simulation.membership.node("pool-0/l2-0").status == "alive"

    def test_migrations_happened(self, simulation):
        assert simulation.stats.migrations >= 1
        assert "pool-2" in simulation.membership.pools

    def test_repair_and_migration_interleave_with_foreground_ops(self, simulation):
        """Foreground operations on >= 2 shards complete both before and
        after background events, all on the one global timeline."""
        timeline = simulation.timeline()
        assert timeline == sorted(timeline, key=lambda e: e[0])

        repair_times = [t for t, cat, _ in timeline if cat == "repair-done"]
        migrate_times = [t for t, cat, _ in timeline if cat == "migrate"]
        assert repair_times and migrate_times

        def shards_responding(predicate):
            return {
                _shard_key(detail.split()[-1])
                for t, cat, detail in timeline
                if cat == "respond" and predicate(t)
            }

        first_background = min(repair_times[0], migrate_times[0])
        last_background = max(repair_times[-1], migrate_times[-1])
        # Multiple shards answered foreground traffic before the first
        # background event and after the last one: the background work
        # genuinely ran *between* foreground operations.
        assert len(shards_responding(lambda t: t < first_background)) >= 2
        assert len(shards_responding(lambda t: t > last_background)) >= 2
        # And foreground operations on >= 2 distinct shards completed
        # strictly inside the background activity window.
        inside = shards_responding(
            lambda t: first_background < t < last_background)
        assert len(inside) >= 2

    def test_kernel_saw_cross_shard_interleaving(self, simulation):
        # Responses from different shards alternate on the one clock
        # instead of arriving shard by shard.
        responders = [_shard_key(op.op_id) for op in sorted(
            (op for op in simulation.history() if op.is_complete),
            key=lambda op: op.responded_at)]
        shards = set(responders)
        assert len(shards) >= 2
        switches = sum(a != b for a, b in zip(responders, responders[1:]))
        assert switches > len(shards)


class TestShippedScenarios:
    def test_migration_under_load(self, config):
        simulation = ClusterSimulation(config, POOLS, seed=3)
        simulation.apply(migration_under_load(
            KEYS, "pool-9", seed=3, operations=60, duration=400.0, join_at=150.0,
        ))
        assert simulation.check_atomicity() is None
        assert simulation.stats.migrations >= 1
        # Migrated epochs preserved their values: spot-check via reads.
        moved = [key for _, key, _, _ in simulation.migration_log]
        assert moved
        for key in moved:
            assert simulation.shards[key].epoch >= 1

    def test_correlated_pool_failure(self, config):
        simulation = ClusterSimulation(config, POOLS, seed=4)
        simulation.apply(correlated_pool_failure(
            KEYS, "pool-0", seed=4, operations=60, duration=400.0,
            fail_at=120.0, stagger=5.0,
        ))
        assert simulation.check_atomicity() is None
        assert all(op.is_complete for op in simulation.history())
        # The L2 node was repaired and recovered; the L1 node needs no
        # repair (the protocol tolerates f1 edge crashes natively).
        assert simulation.membership.node("pool-0/l2-0").status == "alive"
        assert simulation.membership.node("pool-0/l1-0").status == "failed"
        assert simulation.repair.stats.repairs_completed >= 1

    def test_flash_crowd(self, config):
        simulation = ClusterSimulation(config, POOLS, seed=6,
                                       writers_per_shard=2, readers_per_shard=2)
        simulation.apply(flash_crowd(
            KEYS, seed=6, operations=40, crowd_operations=60,
            shift_at=200.0, duration=400.0, latency_scale=1.5,
        ))
        assert simulation.check_atomicity() is None
        assert simulation.latency_regime.scale == 1.5
        shift_logged = [entry for entry in simulation.engine.log
                        if entry[1] == LATENCY_SHIFT]
        assert len(shift_logged) == 1 and shift_logged[0][0] == 200.0
        # The crowd phase really ran as a second client population.
        crowd_ops = [op for op in simulation.history()
                     if op.client_id.endswith("-1")]
        assert crowd_ops


class TestLatencyShiftEffect:
    def test_latency_scale_stretches_operation_latencies(self, config):
        def mean_latency(scale):
            simulation = ClusterSimulation(config, POOLS, seed=9)
            if scale != 1.0:
                simulation.set_latency_scale(scale)
            handles = [simulation.invoke_write(key, b"v", at=float(i))
                       for i, key in enumerate(KEYS[:6])]
            simulation.run_until_idle()
            history = simulation.history().complete()
            durations = [op.duration for op in history]
            assert handles and durations
            return sum(durations) / len(durations)

        assert mean_latency(2.0) > 1.5 * mean_latency(1.0)
