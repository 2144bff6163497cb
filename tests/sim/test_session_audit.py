"""Cluster-wide session audits over the shipped scenarios.

Acceptance criteria of the session auditor: every shipped scenario audits
clean (atomic per epoch AND all four session guarantees hold across keys,
shards and migration epochs) under kernel mode with a fixed seed, while
the injection harness proves each guarantee class is actually detectable
on a real scenario history.
"""

from __future__ import annotations

import pytest

from repro.consistency.injection import inject_session_violation
from repro.consistency.sessions import SESSION_GUARANTEES, check_sessions
from repro.core.config import LDSConfig
from repro.sim import (
    ClusterSimulation,
    correlated_pool_failure,
    flash_crowd,
    migration_under_load,
    repair_under_load,
)

KEYS = [f"obj-{i}" for i in range(16)]
POOLS = ["pool-0", "pool-1"]


@pytest.fixture
def config() -> LDSConfig:
    return LDSConfig(n1=3, n2=4, f1=1, f2=1)


def _audited(simulation):
    report = simulation.audit()
    assert report.atomicity is None, report.atomicity
    assert report.sessions.ok, report.sessions.violations
    assert report.ok and "atomic" in report.describe()
    # The audit actually exercised cross-shard session state.
    assert report.sessions.sessions_checked >= 1
    assert report.sessions.pairs_checked > 0
    return report


class TestScenariosAuditClean:
    def test_repair_under_load(self, config):
        simulation = ClusterSimulation(config, POOLS, seed=11,
                                       repair_min_interval=10.0)
        simulation.apply(repair_under_load(
            KEYS, "pool-0/l2-0", seed=11, operations=120,
            duration=600.0, fail_at=120.0,
        ))
        assert simulation.repair.stats.repairs_completed >= 1
        _audited(simulation)

    def test_migration_under_load(self, config):
        simulation = ClusterSimulation(config, POOLS, seed=3)
        simulation.apply(migration_under_load(
            KEYS, "pool-9", seed=3, operations=120, duration=600.0,
            join_at=150.0,
        ))
        # The audit must span migration epochs, not dodge them.
        assert simulation.router.stats.migrations >= 1
        report = _audited(simulation)
        epochs = {op.object_id for op in simulation.history()}
        assert any("@e" in object_id for object_id in epochs)
        assert report.sessions.operations_checked == 120

    def test_correlated_pool_failure(self, config):
        simulation = ClusterSimulation(config, POOLS, seed=4)
        simulation.apply(correlated_pool_failure(
            KEYS, "pool-0", seed=4, operations=120, duration=600.0,
            fail_at=120.0, stagger=5.0,
        ))
        _audited(simulation)

    def test_flash_crowd(self, config):
        simulation = ClusterSimulation(config, POOLS, seed=6,
                                       writers_per_shard=2,
                                       readers_per_shard=2)
        simulation.apply(flash_crowd(
            KEYS, seed=6, operations=80, crowd_operations=100,
            shift_at=250.0, duration=400.0, latency_scale=1.5,
        ))
        report = _audited(simulation)
        # Calm and crowd populations are audited as separate sessions.
        assert report.sessions.sessions_checked == 2
        sessions = set(simulation.history().sessions())
        assert sessions == {"client-0", "crowd-1"}


class TestInjectionOnScenarioHistories:
    """Each guarantee class is detectable on a real cross-shard history."""

    @pytest.fixture(scope="class")
    def scenario_history(self):
        simulation = ClusterSimulation(LDSConfig(n1=3, n2=4, f1=1, f2=1),
                                       POOLS, seed=11,
                                       repair_min_interval=10.0)
        simulation.apply(repair_under_load(
            KEYS, "pool-0/l2-0", seed=11, operations=160,
            duration=600.0, fail_at=120.0,
        ))
        history = simulation.history()
        assert check_sessions(history).ok
        return history

    @pytest.mark.parametrize("guarantee", SESSION_GUARANTEES)
    def test_injected_violation_is_detected(self, scenario_history, guarantee):
        injection = inject_session_violation(scenario_history, guarantee)
        report = check_sessions(injection.history)
        flagged = report.for_guarantee(guarantee)
        assert flagged
        assert any(set(injection.mutated) & set(v.operations)
                   for v in flagged)


class TestSessionThreading:
    def test_explicit_sessions_survive_to_the_merged_history(self, config):
        simulation = ClusterSimulation(config, POOLS, seed=1)
        simulation.invoke_write("a", b"x", at=0.0, session="alice")
        simulation.invoke_read("b", at=50.0, session="alice")
        simulation.invoke_write("c", b"y", at=100.0, session="bob")
        simulation.run_until_idle()
        history = simulation.history()
        by_session = {}
        for op in history:
            by_session.setdefault(op.session, []).append(op.object_id)
        assert sorted(by_session["alice"]) == ["a", "b"]
        assert by_session["bob"] == ["c"]

    def test_workload_arrivals_get_default_sessions(self, config):
        from repro.workloads.generator import WorkloadGenerator

        simulation = ClusterSimulation(config, POOLS, seed=2)
        generator = WorkloadGenerator(seed=2, client_spacing=60.0)
        workload = generator.keyed_random(KEYS[:4], 20, 0.5, 400.0)
        simulation.add_workload(workload)
        simulation.run_until_idle()
        history = simulation.history()
        assert len(history) == 20
        assert all(op.session == "client-0" for op in history)
