"""The sampling availability monitor and its injection drills.

The monitor's claim is a *calibrated* one: it only alarms on silent
holes (missing fragment, no repair pending, pool alive), stays quiet on
faults the control plane already owns (repair backlog, dead pools), and
quantifies how hard it has looked (per-object detection confidence
1 - (1 - 1/n2)^samples).  Each test pins one arm of that contract.
"""

from __future__ import annotations

import pytest

from repro.consistency.injection import (
    InjectionError,
    inject_under_replication,
    inject_withheld_repair,
)
from repro.core.config import LDSConfig
from repro.obs import Telemetry
from repro.obs.availability import (
    DEFAULT_AVAILABILITY_INTERVAL,
    PROTECTED,
    SILENT,
    AvailabilityMonitor,
)
from repro.sim import ClusterSimulation

KEYS = [f"obj-{i}" for i in range(12)]
POOLS = [f"pool-{i}" for i in range(4)]
CONFIG = LDSConfig(n1=3, n2=4, f1=1, f2=1)


def build(seed: int = 11) -> ClusterSimulation:
    telemetry = Telemetry(live_audit=True,
                          availability_interval=DEFAULT_AVAILABILITY_INTERVAL)
    simulation = ClusterSimulation(CONFIG, POOLS, seed=seed,
                                   telemetry=telemetry)
    simulation.ensure_shards(KEYS)
    for index, key in enumerate(KEYS):
        simulation.invoke_write(key, b"v", at=float(index))
    simulation.run_until_idle()
    return simulation


def sample(simulation, epochs: int = 10):
    monitor = simulation.telemetry.availability
    for _ in range(epochs):
        monitor.tick()
    return monitor


class TestSilentHoles:
    def test_under_replication_raises_the_alarm(self):
        simulation = build()
        drill = inject_under_replication(simulation, count=len(KEYS))
        monitor = sample(simulation)
        assessment = monitor.assessment()
        assert not assessment.ok
        holes = set(drill.holes)
        for row in assessment.silent_alarms:
            assert (row["key"], row["l2_index"], row["pool"]) in holes
        assert "availability ALARM" in assessment.describe()
        assert monitor._c_silent.value == len(assessment.silent_alarms)
        report = simulation.audit()
        assert not report.ok
        assert "availability ALARM" in report.describe()

    def test_withheld_repair_raises_the_alarm(self):
        simulation = build()
        drill = inject_withheld_repair(simulation)
        assert drill.node_id is not None
        assert drill.holes  # the failure did schedule (withheld) repairs
        # The crash has landed on every shard of the pool; the withheld
        # repairs never run.
        simulation.kernel.run(until=simulation.kernel.now + 0.5)
        monitor = sample(simulation, epochs=20)
        assessment = monitor.assessment()
        assert not assessment.ok
        holes = set(drill.holes)
        for row in assessment.silent_alarms:
            assert (row["key"], row["l2_index"], row["pool"]) in holes

    def test_the_armed_probe_catches_a_mid_run_injection(self):
        # End to end through the kernel probe cadence: inject, then give
        # the run enough foreground work for sampling epochs to fire.
        simulation = build()
        inject_under_replication(simulation, count=len(KEYS))
        start = simulation.kernel.now
        for index, key in enumerate(KEYS):
            simulation.invoke_write(key, b"w", at=start + 20.0 * (index + 1))
        simulation.run_until_idle()
        monitor = simulation.telemetry.availability
        assert monitor.silent_alarms, \
            "the probe cadence sampled past the holes"
        assert not simulation.audit().ok


class TestCalibratedQuiet:
    def test_a_pending_repair_is_protected_not_silent(self):
        simulation = build()
        simulation.fail_node("pool-0/l2-0", time=simulation.kernel.now)
        # Pump short of the repair's detection delay: fragments missing,
        # backlog still covering them.
        simulation.kernel.run(until=simulation.kernel.now + 0.5)
        monitor = simulation.telemetry.availability
        outcomes = []
        for _ in range(10):
            outcomes.extend(monitor.tick())
        assert PROTECTED in outcomes
        assert SILENT not in outcomes
        assessment = monitor.assessment()
        assert assessment.ok
        assert assessment.protected_misses > 0
        assert "availability ok" in assessment.describe()

    def test_a_dead_pool_is_an_outage_not_silent_decay(self):
        simulation = build()
        simulation.fail_pool("pool-0", time=simulation.kernel.now)
        simulation.kernel.run(until=simulation.kernel.now + 0.5)
        monitor = sample(simulation)
        assessment = monitor.assessment()
        assert assessment.ok
        assert assessment.pool_down_misses > 0
        assert not assessment.silent_alarms

    def test_a_healthy_cluster_samples_all_present(self):
        simulation = build()
        monitor = simulation.telemetry.availability
        base = monitor.samples_taken  # the armed probe sampled during build
        for _ in range(4):
            monitor.tick()
        assessment = monitor.assessment()
        assert assessment.ok
        assert assessment.fragments_missing == 0
        assert assessment.samples_taken == base + 4 * monitor.samples_per_epoch


class TestConfidence:
    def test_confidence_matches_the_analytic_bound(self):
        simulation = build()
        monitor = sample(simulation, epochs=6)
        assessment = monitor.assessment()
        n2 = CONFIG.n2
        for key, samples in monitor.samples_by_object.items():
            expected = 1.0 - (1.0 - 1.0 / n2) ** samples
            assert assessment.confidence_by_object[key] == \
                pytest.approx(expected)
        assert assessment.min_confidence == \
            pytest.approx(min(assessment.confidence_by_object.values()))

    def test_confidence_grows_with_samples(self):
        simulation = build()
        monitor = simulation.telemetry.availability
        monitor.tick()
        early = monitor.assessment().min_confidence
        for _ in range(19):
            monitor.tick()
        late = monitor.assessment().min_confidence
        assert 0.0 < early < late < 1.0


class TestBacklogAgeWeighting:
    """Sampling weighted by repair-backlog age: the oldest known holes
    are probed directly, so an aged hole whose repair silently gave up
    is caught in fewer epochs than uniform sampling needs."""

    def _age_a_hole(self, monitor):
        """Fail a node, let the monitor see its backlog, then withhold
        the repair -- an *aged* silent hole the watchlist remembers."""
        simulation = monitor.simulation
        simulation.fail_node("pool-0/l2-0", time=simulation.kernel.now)
        simulation.kernel.run(until=simulation.kernel.now + 0.5)
        assert simulation.repair.pending_slots()
        outcomes = monitor.tick()  # backlog observed -> watchlist stamped
        assert SILENT not in outcomes
        withheld = []
        for task in simulation.repair.tasks:
            withheld.extend(
                simulation.repair.withhold_node(task.node_id))
            break
        assert withheld
        return {(task.key, task.l2_index) for task in withheld}

    def _epochs_to_detect(self, backlog_priority, seed=11, limit=60):
        simulation = build(seed=seed)
        monitor = AvailabilityMonitor(simulation, samples_per_epoch=2,
                                      backlog_priority=backlog_priority,
                                      seed=seed)
        holes = self._age_a_hole(monitor)
        for epoch in range(1, limit + 1):
            if SILENT in monitor.tick():
                assert {(row["key"], row["l2_index"])
                        for row in monitor.silent_alarms} <= holes
                return epoch
        return limit + 1

    def test_aged_hole_detected_faster_than_uniform(self):
        weighted = self._epochs_to_detect(backlog_priority=2)
        uniform = self._epochs_to_detect(backlog_priority=0)
        assert weighted == 1  # the watchlist probes the oldest slot first
        assert weighted < uniform

    def test_watchlist_drains_when_the_repair_lands(self):
        # A hole that the repair pipeline actually fixes must leave the
        # watchlist once observed present, freeing the budget.
        simulation = build()
        monitor = AvailabilityMonitor(simulation, samples_per_epoch=4,
                                      backlog_priority=2, seed=5)
        simulation.fail_node("pool-0/l2-0", time=simulation.kernel.now)
        simulation.kernel.run(until=simulation.kernel.now + 0.5)
        monitor.tick()
        assert monitor._watchlist
        simulation.run_until_idle()  # the repair completes
        for _ in range(4):
            monitor.tick()
        assert not monitor._watchlist
        assert monitor.assessment().ok

    def test_empty_backlog_is_byte_identical_to_uniform(self):
        # With nothing in the backlog the weighted monitor must draw the
        # exact same uniform samples (same RNG stream) as priority=0.
        runs = []
        for priority in (0, 3):
            simulation = build(seed=17)
            monitor = AvailabilityMonitor(simulation, samples_per_epoch=6,
                                          backlog_priority=priority, seed=17)
            for _ in range(8):
                monitor.tick()
            runs.append((monitor.samples_taken,
                         dict(monitor.samples_by_object)))
        assert runs[0] == runs[1]

    def test_budget_is_constant_per_epoch(self):
        simulation = build()
        monitor = AvailabilityMonitor(simulation, samples_per_epoch=3,
                                      backlog_priority=2, seed=3)
        self._age_a_hole(monitor)
        before = monitor.samples_taken
        for _ in range(5):
            assert len(monitor.tick()) == 3
        assert monitor.samples_taken == before + 15

    def test_negative_priority_rejected(self):
        simulation = ClusterSimulation(CONFIG, POOLS, seed=1)
        with pytest.raises(ValueError):
            AvailabilityMonitor(simulation, backlog_priority=-1)


class TestDrillPreconditions:
    def test_under_replication_needs_shards(self):
        simulation = ClusterSimulation(CONFIG, POOLS, seed=1)
        with pytest.raises(InjectionError):
            inject_under_replication(simulation)

    def test_under_replication_needs_enough_shards(self):
        simulation = build()
        with pytest.raises(InjectionError):
            inject_under_replication(simulation, count=len(KEYS) + 1)

    def test_withheld_repair_needs_shards(self):
        simulation = ClusterSimulation(CONFIG, POOLS, seed=1)
        with pytest.raises(InjectionError):
            inject_withheld_repair(simulation)

    def test_monitor_parameter_validation(self):
        simulation = ClusterSimulation(CONFIG, POOLS, seed=1)
        with pytest.raises(ValueError):
            AvailabilityMonitor(simulation, interval=0.0)
        with pytest.raises(ValueError):
            AvailabilityMonitor(simulation, samples_per_epoch=0)
